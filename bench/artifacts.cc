#include "artifacts.hh"

namespace highlight
{

const std::vector<Artifact> &
artifacts()
{
    static const std::vector<Artifact> table = {
        {"fig2_motivation", runFig2},
        {"fig6_hss_designs", runFig6},
        {"fig13_synthetic", runFig13},
        {"fig14_geomean", runFig14},
        {"fig15_pareto", runFig15},
        {"fig16_tax", runFig16},
        {"fig17_dsso", runFig17},
        {"ablation_bcompress", runAblationBcompress},
        {"ablation_ranks", runAblationRanks},
        {"ablation_safs", runAblationSafs},
        {"table1_categories", runTable1},
        {"table2_specs", runTable2},
        {"table3_patterns", runTable3},
        {"table4_resources", runTable4},
    };
    return table;
}

} // namespace highlight
