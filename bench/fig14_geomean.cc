/**
 * @file
 * Reproduces Fig 14: geomean of normalized latency, energy, EDP and
 * ED^2 across the Fig 13 synthetic suite, per design. The paper's
 * headline: HighLight achieves the best geomean on every metric, with
 * geomean EDP gains of ~6.4x vs dense (up to 20.4x) and ~2.7x vs the
 * sparse baselines (up to 5.9x).
 *
 * The whole design x workload matrix goes through the batched
 * parallel runtime.
 */

#include <sstream>

#include "artifact_util.hh"
#include "artifacts.hh"
#include "common/logging.hh"
#include "common/stats.hh"

namespace highlight
{

ArtifactReport
runFig14()
{
    std::ostringstream out;

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

    const EvalMatrix matrix(ev, designs, suite);
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
    t.print(out);

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
    out << "\nHighLight EDP vs dense TC:    geomean "
        << TextTable::fmt(geomean(vs_tc), 2) << "x, max "
        << TextTable::fmt(maxOf(vs_tc), 2) << "x   (paper: 6.4x / 20.4x)\n";
    out << "HighLight EDP vs best sparse: geomean "
        << TextTable::fmt(geomean(vs_sparse_best), 2) << "x, max "
        << TextTable::fmt(maxOf(vs_sparse_best), 2)
        << "x   (paper: 2.7x / 5.9x)\n";
    return {out.str(), resultsJson(matrix.flat())};
}

} // namespace highlight
