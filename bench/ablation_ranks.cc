/**
 * @file
 * Ablation: number of HSS ranks (paper Sec 5.3).
 *
 * For a fixed flexibility target (>= 15 degrees reaching 87.5%
 * sparsity), designs with more ranks need smaller per-rank Hmax and
 * pay a smaller muxing tax — the takeaway behind Fig 6. This bench
 * sweeps 1-3 ranks and also shows the diminishing returns beyond two
 * ranks.
 */

#include <sstream>

#include "artifact_util.hh"
#include "artifacts.hh"
#include "core/explorer.hh"

namespace highlight
{

ArtifactReport
runAblationRanks()
{
    std::ostringstream out;

    DesignSpaceExplorer explorer;

    std::vector<TextTable> tables;
    for (const auto &[degrees, density] :
         std::vector<std::pair<int, double>>{{15, 0.125},
                                             {25, 0.0625}}) {
        const auto reports = explorer.rankAblation(degrees, density);
        TextTable t("Rank ablation: >= " + std::to_string(degrees) +
                    " degrees down to " +
                    TextTable::fmt(100.0 * (1.0 - density), 1) +
                    "% sparsity");
        t.setHeader({"design", "Hmax per rank", "#degrees",
                     "2:1-mux count", "mux area (um^2)",
                     "mux energy/step (pJ)"});
        for (const auto &r : reports) {
            std::string hmax;
            for (std::size_t i = 0; i < r.hmax_per_rank.size(); ++i) {
                if (i)
                    hmax += ",";
                hmax += std::to_string(r.hmax_per_rank[i]);
            }
            t.addRow({r.name, hmax, std::to_string(r.degrees.size()),
                      std::to_string(r.total_mux2),
                      TextTable::fmt(r.mux_area_um2, 0),
                      TextTable::fmt(r.mux_energy_per_step_pj, 3)});
        }
        t.print(out);
        out << "\n";
        tables.push_back(std::move(t));
    }

    out << "Takeaway (Sec 5.3): multi-rank HSS reaches the same "
           "degree coverage with\nmuch lower sparsity tax; gains "
           "flatten beyond two ranks, which is why\nHighLight "
           "uses a two-rank HSS.\n";

    std::vector<const TextTable *> refs;
    for (const TextTable &table : tables)
        refs.push_back(&table);
    return {out.str(), tablesJson(refs)};
}

} // namespace highlight
