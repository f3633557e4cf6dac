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
 * runs only the one-thread fallback.
 *
 * `--shard i/N` runs this driver as one shard of a multi-process
 * sweep: each model's candidate list is partitioned with the
 * deterministic DesignSpaceExplorer::shardRange (a pure function of
 * (total, i, N), so N uncoordinated processes agree), the shard
 * evaluates only its own candidates (plus the dense-TC baseline,
 * which every shard needs for EDP normalization), and
 * `--frontier-json` dumps the shard's evaluated *points* instead of
 * a frontier. The examples/sharded_sweep supervisor forks N shards
 * sharing one `--cache-file` (safe: cache flushes are locked
 * merge-on-flush), merges the point dumps model-major in shard
 * order, and extracts a frontier byte-identical to this driver's
 * single-process dump — ctest-asserted by compare_shard.cmake,
 * which also asserts a second (warm) sharded run is 100% cache
 * hits.
 */

#include <iostream>

#include "common/table.hh"
#include "core/evaluator.hh"
#include "core/explorer.hh"
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

/**
 * The --shard i/N path: evaluate this shard's slice of every model's
 * candidate list and dump the evaluated points (not a frontier).
 * Returns the process exit code.
 */
int
runShard(const EvalCacheConfig &cache_cfg, const ShardSpec &shard,
         const std::string &frontier_path, ArtifactFormat frontier_format)
{
    Evaluator ev(cache_cfg);
    const auto candidates = candidatesFor();
    std::vector<FrontierEntry> points;

    TextTable t(msgOf("Fig 15 shard ", shard.str(),
                      " (points; EDP normalized to dense TC)"));
    t.setHeader({"model", "design", "accuracy loss", "norm. EDP"});
    std::size_t evals = 0;
    for (const auto &[model, nm] : modelCases()) {
        // Every shard evaluates the dense-TC baseline: EDP is
        // normalized to it, and through the shared cache file only
        // the first shard to get there actually computes it.
        const auto tc =
            ev.runDnn(model, nm, {"TC", PruningApproach::Dense, 0.0});
        ++evals;
        const auto [begin, end] = DesignSpaceExplorer::shardRange(
            candidates.size(), shard.index, shard.count);
        for (std::size_t i = begin; i < end; ++i) {
            const auto r = ev.runDnn(model, nm, candidates[i]);
            ++evals;
            if (!r.supported)
                continue;
            points.push_back({model.name, labelOf(candidates[i]),
                              r.accuracy_loss, r.edp() / tc.edp()});
            t.addRow({model.name, points.back().design,
                      TextTable::fmt(points.back().accuracy_loss, 2),
                      TextTable::fmt(points.back().norm_edp, 3)});
        }
    }
    t.print(std::cout);

    const auto stats = ev.cacheStats();
    std::cout << "\n[runtime] shard " << shard.str() << " threads="
              << ThreadPool::global().numThreads() << " dnn evals="
              << evals << " cache hits=" << stats.hits
              << " misses=" << stats.misses << " hit rate="
              << TextTable::fmt(stats.hitRate() * 100.0, 1) << "%\n";

    if (!frontier_path.empty() &&
        !writeFrontierFile(frontier_path, points, frontier_format)) {
        std::cerr << "fig15: cannot write " << frontier_path << "\n";
        return 1;
    }
    // Merge this shard's results into the shared cache file now, so
    // a save failure is reported while the sibling shards still run
    // (the destructor's flush would only warn).
    if (ev.flushCache() == EvalCache::FlushStatus::Failed) {
        std::cerr << "fig15: shard " << shard.str()
                  << " failed to save " << cache_cfg.file << "\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const DriverThreads threads = configureTimedDriverThreads(argc, argv);
    const bool serial_only = threads.serial_only;
    const std::string json_path = parseOptionValue(argc, argv, "--json");
    const std::string frontier_path =
        parseOptionValue(argc, argv, "--frontier-json");
    const ShardSpec shard = parseShardFlag(argc, argv);

    // --cache-file makes the eval cache persistent; sharded runs use
    // it to share one warm cache across the shard processes (flushes
    // are locked merge-on-flush, so concurrent shards cannot clobber
    // each other's entries).
    EvalCacheConfig cache_cfg = EvalCacheConfig::fromEnv();
    const std::string cache_file =
        parseOptionValue(argc, argv, "--cache-file");
    if (!cache_file.empty())
        cache_cfg.file = cache_file;
    cache_cfg.format = parseCacheFormatFlag(argc, argv, cache_cfg.format);

    // --frontier-format picks the `--frontier-json` encoding: text
    // (the default, and what the figure consumers read) or the binary
    // container (what the sharded-sweep supervisor asks its shards
    // for). Readers auto-detect, so the two interoperate.
    const ArtifactFormat frontier_format = parseFormatFlag(
        argc, argv, "--frontier-format", ArtifactFormat::Text);

    if (shard.enabled())
        return runShard(cache_cfg, shard, frontier_path,
                        frontier_format);

    Evaluator ev(cache_cfg);
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
        !writeFrontierFile(frontier_path, frontier, frontier_format)) {
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
