/**
 * @file
 * Reproduces Fig 6(a) and 6(b): designs S (one-rank, 2:{2..16}) and
 * SS (two-rank, 2:{2..8} x 2:{2..4}) each cover 15 sparsity degrees
 * across 0-87.5%, but SS needs much smaller per-rank Hmax and
 * therefore less than half the muxing overhead.
 */

#include <iomanip>
#include <sstream>

#include "artifacts.hh"
#include "common/table.hh"
#include "core/explorer.hh"
#include "io/json.hh"

namespace highlight
{

namespace
{

/**
 * Full-precision JSON dump of the design reports (same byte-compare
 * property as the sweep artifacts' resultsJson).
 */
std::string
designReportsJson(const std::vector<const HssDesignReport *> &reports)
{
    std::ostringstream out;
    out << std::setprecision(17);
    out << "[\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto &r = *reports[i];
        out << "  {\"design\": " << jsonQuote(r.name)
            << ", \"num_ranks\": " << r.num_ranks
            << ", \"total_mux2\": " << r.total_mux2
            << ", \"mux_area_um2\": " << r.mux_area_um2
            << ", \"mux_energy_per_step_pj\": "
            << r.mux_energy_per_step_pj << ", \"degrees\": [";
        for (std::size_t d = 0; d < r.degrees.size(); ++d) {
            out << (d ? ", " : "") << "{\"spec\": "
                << jsonQuote(r.degrees[d].spec.str())
                << ", \"density\": " << r.degrees[d].density << "}";
        }
        out << "]}" << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return out.str();
}

} // namespace

ArtifactReport
runFig6()
{
    std::ostringstream out;

    // Both designs analyzed in one analyzeMany call.
    DesignSpaceExplorer explorer;
    const auto reports = explorer.analyzeMany(
        {DesignSpaceExplorer::designS(), DesignSpaceExplorer::designSS()});
    const auto &s = reports[0];
    const auto &ss = reports[1];

    // --- Fig 6(a): design attributes + latency per degree ---
    TextTable attrs("Fig 6(a): design attributes");
    attrs.setHeader({"design", "#ranks", "Hmax per rank", "#degrees",
                     "sparsity range"});
    for (const auto *r : {&s, &ss}) {
        std::string hmax;
        for (std::size_t i = 0; i < r->hmax_per_rank.size(); ++i) {
            if (i)
                hmax += ", ";
            hmax += "rank" + std::to_string(i) + "=" +
                    std::to_string(r->hmax_per_rank[i]);
        }
        attrs.addRow(
            {r->name, std::to_string(r->num_ranks), hmax,
             std::to_string(r->degrees.size()),
             "0% - " +
                 TextTable::fmt(
                     100.0 * (1.0 - r->degrees.back().density), 1) +
                 "%"});
    }
    attrs.print(out);

    // Row i holds each design's own i-th degree: S and SS cover
    // different sparsities between 0% and 87.5%.
    TextTable lat("Fig 6(a): normalized processing latency per degree");
    lat.setHeader({"S sparsity %", "S latency", "SS sparsity %",
                   "SS latency", "SS witness spec"});
    const auto sparsity = [](const HssDegree &d) {
        return TextTable::fmt(100.0 * (1.0 - d.density), 1);
    };
    for (std::size_t i = 0; i < ss.degrees.size(); ++i) {
        lat.addRow({sparsity(s.degrees[i]),
                    TextTable::fmt(s.degrees[i].density, 4),
                    sparsity(ss.degrees[i]),
                    TextTable::fmt(ss.degrees[i].density, 4),
                    ss.degrees[i].spec.str()});
    }
    out << "\n";
    lat.print(out);

    // --- Fig 6(b): normalized muxing overhead ---
    TextTable mux("Fig 6(b): muxing overhead (normalized to SS)");
    mux.setHeader({"design", "2:1-mux count", "area (um^2)",
                   "energy/step (pJ)", "normalized"});
    for (const auto *r : {&s, &ss}) {
        mux.addRow({r->name, std::to_string(r->total_mux2),
                    TextTable::fmt(r->mux_area_um2, 0),
                    TextTable::fmt(r->mux_energy_per_step_pj, 3),
                    TextTable::fmt(static_cast<double>(r->total_mux2) /
                                       static_cast<double>(
                                           ss.total_mux2),
                                   2)});
    }
    out << "\n";
    mux.print(out);
    out << "\nPaper claim: SS introduces > 2x less muxing "
           "overhead while representing\nthe same number of "
           "sparsity degrees as S. Measured factor: "
        << TextTable::fmt(static_cast<double>(s.total_mux2) /
                              static_cast<double>(ss.total_mux2),
                          2)
        << "x\n";
    return {out.str(), designReportsJson({&s, &ss})};
}

} // namespace highlight
