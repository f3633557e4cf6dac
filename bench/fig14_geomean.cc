/**
 * @file
 * Reproduces Fig 14: geomean of normalized latency, energy, EDP and
 * ED^2 across the Fig 13 synthetic suite, per design. The paper's
 * headline: HighLight achieves the best geomean on every metric, with
 * geomean EDP gains of ~6.4x vs dense (up to 20.4x) and ~2.7x vs the
 * sparse baselines (up to 5.9x).
 *
 * The whole design x workload matrix goes through the batched
 * parallel runtime. By default the driver also times a one-thread
 * serial pass, verifies it is bit-identical, and reports the
 * wall-clock speedup; `--serial` runs only the serial fallback.
 */

#include <cstdlib>
#include <iostream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/evaluator.hh"
#include "runtime_flags.hh"

namespace
{

using namespace highlight;

bool
bitIdentical(const std::vector<EvalResult> &a,
             const std::vector<EvalResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].cycles != b[i].cycles ||
            a[i].totalEnergyPj() != b[i].totalEnergyPj() ||
            a[i].supported != b[i].supported)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace highlight;

    rejectUnknownArgs(argc, argv);
    const DriverThreads threads = configureTimedDriverThreads(argc, argv);
    const bool serial_only = threads.serial_only;
    const std::string json_path = parseOptionValue(argc, argv, "--json");

    const Evaluator ev;
    const auto suite = syntheticSuite();
    const auto designs = ev.standardLineup();
    const std::size_t nw = suite.size();

    // Look designs up by name, not by lineup position, so a reordered
    // or extended lineup cannot silently misattribute the headline
    // numbers.
    const auto indexOf = [&](const std::string &name) {
        for (std::size_t i = 0; i < designs.size(); ++i) {
            if (designs[i]->name() == name)
                return i;
        }
        fatal(msgOf("fig14: design ", name, " not in lineup"));
    };
    const std::size_t tc_i = indexOf("TC");
    const std::size_t hl_i = indexOf("HighLight");
    const std::size_t sparse_i[] = {indexOf("STC"), indexOf("S2TA"),
                                    indexOf("DSTC")};

    const WallTimer timer;
    const EvalMatrix matrix(ev, designs, suite);
    const double sweep_seconds = timer.seconds();
    const auto at = [&](std::size_t d, std::size_t w) -> const EvalResult & {
        return matrix.at(d, w);
    };

    TextTable t("Fig 14: geomean of normalized metrics "
                "(over supported workloads; lower is better)");
    t.setHeader({"design", "latency", "energy", "EDP", "ED^2",
                 "#supported"});
    for (std::size_t di = 0; di < designs.size(); ++di) {
        std::vector<double> lat, energy, edp, ed2;
        for (std::size_t wi = 0; wi < nw; ++wi) {
            const auto &tc = at(tc_i, wi);
            const auto &r = at(di, wi);
            if (!r.supported)
                continue;
            const auto n = normalizeTo(r, tc);
            lat.push_back(n.latency);
            energy.push_back(n.energy);
            edp.push_back(n.edp);
            ed2.push_back(n.ed2);
        }
        t.addRow({designs[di]->name(), TextTable::fmt(geomean(lat), 3),
                  TextTable::fmt(geomean(energy), 3),
                  TextTable::fmt(geomean(edp), 3),
                  TextTable::fmt(geomean(ed2), 3),
                  std::to_string(lat.size())});
    }
    t.print(std::cout);

    // The abstract's headline numbers.
    std::vector<double> vs_tc, vs_sparse_best;
    for (std::size_t wi = 0; wi < nw; ++wi) {
        const auto &tc = at(tc_i, wi);
        const auto &hl = at(hl_i, wi);
        vs_tc.push_back(tc.edp() / hl.edp());
        double best_sparse = 1e300;
        for (std::size_t di : sparse_i) {
            const auto &r = at(di, wi);
            if (r.supported)
                best_sparse = std::min(best_sparse, r.edp());
        }
        vs_sparse_best.push_back(best_sparse / hl.edp());
    }
    std::cout << "\nHighLight EDP vs dense TC:    geomean "
              << TextTable::fmt(geomean(vs_tc), 2) << "x, max "
              << TextTable::fmt(maxOf(vs_tc), 2)
              << "x   (paper: 6.4x / 20.4x)\n";
    std::cout << "HighLight EDP vs best sparse: geomean "
              << TextTable::fmt(geomean(vs_sparse_best), 2) << "x, max "
              << TextTable::fmt(maxOf(vs_sparse_best), 2)
              << "x   (paper: 2.7x / 5.9x)\n";

    const auto stats = ev.cacheStats();
    std::cout << "\n[runtime] threads="
              << ThreadPool::global().numThreads() << " jobs="
              << matrix.flat().size() << " cache hits=" << stats.hits
              << " misses=" << stats.misses << " hit rate="
              << TextTable::fmt(stats.hitRate() * 100.0, 1) << "%\n";
    if (!json_path.empty() &&
        !writeResultsJson(json_path, matrix.flat())) {
        std::cerr << "fig14: cannot write " << json_path << "\n";
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
    const EvalMatrix serial_matrix(ev_serial, designs, suite);
    const double serial_seconds = serial_timer.seconds();
    ThreadPool::setGlobalThreads(threads.requested);
    const bool identical =
        bitIdentical(matrix.flat(), serial_matrix.flat());
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
