/**
 * @file
 * Reproduces Fig 15: the EDP-vs-accuracy-loss relationship for
 * ResNet50, Transformer-Big and DeiT-small under each co-design
 * approach, with the Pareto frontier marked. The paper's claim:
 * HighLight always sits on the frontier; S2TA cannot run the
 * attention models; DSTC can be worse than dense on the denser models.
 *
 * Every runDnn call fans its layers out over the parallel runtime and
 * dedupes repeated layer shapes through the eval cache. By default
 * the driver times the whole sweep serially too, verifies the results
 * are bit-identical, and reports the wall-clock speedup; `--serial`
 * runs only the one-thread fallback. `--frontier-json PATH` dumps
 * every model's frontier members.
 */

#include <iostream>

#include "common/table.hh"
#include "core/evaluator.hh"
#include "core/pareto.hh"
#include "dnn/deit.hh"
#include "dnn/resnet50.hh"
#include "dnn/transformer.hh"
#include "runtime_flags.hh"

namespace
{

using namespace highlight;

std::vector<DnnScenario>
candidatesFor()
{
    std::vector<DnnScenario> candidates;
    candidates.push_back({"TC", PruningApproach::Dense, 0.0});
    // Channel pruning runs on the dense accelerator with shrunken
    // layers — the classic co-design baseline.
    for (double s : {0.3, 0.5})
        candidates.push_back({"TC", PruningApproach::Channel, s});
    candidates.push_back({"STC", PruningApproach::OneRankGh, 0.5});
    for (double s : {0.5, 0.625, 0.75})
        candidates.push_back({"S2TA", PruningApproach::OneRankGh, s});
    for (double s : {0.5, 0.6, 0.7, 0.8, 0.9})
        candidates.push_back({"DSTC", PruningApproach::Unstructured, s});
    for (double s : {0.5, 0.6, 2.0 / 3.0, 0.75})
        candidates.push_back({"HighLight", PruningApproach::Hss, s});
    return candidates;
}

std::string
labelOf(const DnnScenario &c)
{
    std::string label = c.design;
    if (c.approach == PruningApproach::Channel)
        label += " (channel)";
    return label;
}

struct ModelCase
{
    DnnModel model;
    DnnName nm;
};

std::vector<ModelCase>
modelCases()
{
    return {{resnet50Model(), DnnName::ResNet50},
            {transformerBigModel(), DnnName::TransformerBig},
            {deitSmallModel(), DnnName::DeitSmall}};
}

/**
 * Evaluate every candidate on every model; the flat result vector
 * (model-major) is what the tables and the bit-identity check use.
 */
std::vector<DnnEvalResult>
sweepAll(const Evaluator &ev)
{
    std::vector<DnnEvalResult> out;
    const auto candidates = candidatesFor();
    for (const auto &[model, nm] : modelCases()) {
        for (const auto &c : candidates)
            out.push_back(ev.runDnn(model, nm, c));
    }
    return out;
}

bool
bitIdentical(const std::vector<DnnEvalResult> &a,
             const std::vector<DnnEvalResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].total_cycles != b[i].total_cycles ||
            a[i].total_energy_pj != b[i].total_energy_pj ||
            a[i].supported != b[i].supported)
            return false;
    }
    return true;
}

/** Print one model's table; returns its frontier entries for --json. */
std::vector<FrontierEntry>
printModel(const Evaluator &ev, const DnnModel &model, DnnName nm)
{
    const auto candidates = candidatesFor();
    const auto tc =
        ev.runDnn(model, nm, {"TC", PruningApproach::Dense, 0.0});

    std::vector<ParetoPoint> points;
    std::vector<std::string> rows_design;
    std::vector<double> rows_sparsity;
    for (const auto &c : candidates) {
        const auto r = ev.runDnn(model, nm, c);
        if (!r.supported)
            continue;
        points.push_back(
            {r.accuracy_loss, r.edp() / tc.edp(), labelOf(c)});
        rows_design.push_back(labelOf(c));
        rows_sparsity.push_back(c.weight_sparsity);
    }

    // One batched frontier sweep instead of a per-row recomputation.
    const auto mask = frontierMask(points);

    TextTable t("Fig 15: " + model.name +
                " (EDP normalized to dense TC)");
    t.setHeader({"design", "weight sparsity", "accuracy loss",
                 "norm. EDP", "on Pareto frontier"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        t.addRow({rows_design[i], TextTable::fmt(rows_sparsity[i], 3),
                  TextTable::fmt(points[i].x, 2),
                  TextTable::fmt(points[i].y, 3),
                  mask[i] ? "YES" : ""});
    }
    t.print(std::cout);

    bool s2ta_supported = false;
    for (const auto &d : rows_design)
        s2ta_supported |= d == "S2TA";
    if (!s2ta_supported)
        std::cout << "S2TA: unsupported on " << model.name
                  << " (cannot process the purely dense attention "
                     "GEMMs)\n";
    std::cout << "\n";

    std::vector<FrontierEntry> frontier;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (mask[i])
            frontier.push_back({model.name, points[i].label,
                                points[i].x, points[i].y});
    }
    return frontier;
}

} // namespace

int
main(int argc, char **argv)
{
    rejectUnknownArgs(argc, argv, {"--frontier-json"});
    const DriverThreads threads = configureTimedDriverThreads(argc, argv);
    const bool serial_only = threads.serial_only;
    const std::string json_path = parseOptionValue(argc, argv, "--json");
    const std::string frontier_path =
        parseOptionValue(argc, argv, "--frontier-json");

    const Evaluator ev;
    const WallTimer timer;
    const auto results = sweepAll(ev);
    const double sweep_seconds = timer.seconds();

    // The tables below replay the sweep against the warm cache.
    std::vector<FrontierEntry> frontier;
    for (const auto &[model, nm] : modelCases()) {
        const auto f = printModel(ev, model, nm);
        frontier.insert(frontier.end(), f.begin(), f.end());
    }

    std::cout << "Expected shape (paper Fig 15): HighLight on the "
                 "frontier for every model;\nS2TA absent from the "
                 "attention models; DSTC worse than dense at low "
                 "sparsity\non the denser models.\n";

    const auto stats = ev.cacheStats();
    std::cout << "\n[runtime] threads="
              << ThreadPool::global().numThreads() << " dnn evals="
              << results.size() << " cache hits=" << stats.hits
              << " misses=" << stats.misses << " hit rate="
              << TextTable::fmt(stats.hitRate() * 100.0, 1) << "%\n";
    if (!json_path.empty() && !writeDnnResultsJson(json_path, results)) {
        std::cerr << "fig15: cannot write " << json_path << "\n";
        return 1;
    }
    if (!frontier_path.empty() &&
        !writeFrontierJson(frontier_path, frontier)) {
        std::cerr << "fig15: cannot write " << frontier_path << "\n";
        return 1;
    }
    if (serial_only) {
        std::cout << "[runtime] serial sweep: "
                  << TextTable::fmt(sweep_seconds * 1e3, 2) << " ms\n";
        return 0;
    }
    ThreadPool::setGlobalThreads(1);
    const Evaluator ev_serial; // fresh cache for a fair pass
    const WallTimer serial_timer;
    const auto serial_results = sweepAll(ev_serial);
    const double serial_seconds = serial_timer.seconds();
    ThreadPool::setGlobalThreads(threads.requested);
    const bool identical = bitIdentical(results, serial_results);
    std::cout << "[runtime] parallel sweep: "
              << TextTable::fmt(sweep_seconds * 1e3, 2)
              << " ms, serial sweep: "
              << TextTable::fmt(serial_seconds * 1e3, 2)
              << " ms, speedup: "
              << TextTable::fmt(serial_seconds / sweep_seconds, 2)
              << "x, bit-identical: " << (identical ? "yes" : "NO")
              << "\n";
    // A determinism regression must fail the process so CI's smoke
    // run catches it.
    return identical ? 0 : 1;
}
