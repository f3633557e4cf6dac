#include "core/explorer.hh"

#include <algorithm>
#include <optional>

#include "common/logging.hh"

namespace highlight
{

std::vector<double>
HssDesignReport::latencies() const
{
    // With skipping SAFs and perfect structured balance, relative
    // processing latency at a supported degree equals its density
    // (Fig 6(a)).
    std::vector<double> out;
    for (const auto &d : degrees)
        out.push_back(d.density);
    return out;
}

DesignSpaceExplorer::DesignSpaceExplorer(ComponentLibrary lib)
    : lib_(lib)
{
}

HssDesignReport
DesignSpaceExplorer::analyze(const HssDesignConfig &config) const
{
    if (config.supports.empty())
        fatal("DesignSpaceExplorer::analyze: no rank supports");

    HssDesignReport report;
    report.name = config.name;
    report.num_ranks = config.supports.size();
    std::vector<int> g_per_rank;
    for (const auto &s : config.supports) {
        report.hmax_per_rank.push_back(s.h_max);
        g_per_rank.push_back(s.g);
    }
    report.degrees = enumerateDegrees(config.supports);

    const MuxModel mux = buildHssMuxModel(
        g_per_rank, report.hmax_per_rank, config.num_pes,
        config.num_arrays);
    report.total_mux2 = mux.totalMux2();
    report.mux_area_um2 = mux.areaUm2(lib_);
    report.mux_energy_per_step_pj = mux.energyPerStepPj(lib_);
    return report;
}

HssDesignConfig
DesignSpaceExplorer::designS()
{
    return {"S (one-rank)", fig6DesignS(), 2, 1};
}

HssDesignConfig
DesignSpaceExplorer::designSS()
{
    return {"SS (two-rank)", fig6DesignSS(), 2, 1};
}

std::vector<HssDesignReport>
DesignSpaceExplorer::analyzeMany(
    const std::vector<HssDesignConfig> &configs) const
{
    std::vector<HssDesignReport> out;
    out.reserve(configs.size());
    for (const HssDesignConfig &config : configs)
        out.push_back(analyze(config));
    return out;
}

namespace
{

/**
 * Grow one rank count's per-rank H ranges breadth-first (the rank
 * with the smallest Hmax grows first, keeping the ranks balanced —
 * the whole point of multi-rank HSS) until the degree and density
 * targets are met. Empty when the bounded search does not converge.
 */
std::optional<HssDesignConfig>
searchRankConfig(int ranks, int min_degrees, double min_density)
{
    std::vector<RankSupport> supports(
        static_cast<std::size_t>(ranks), RankSupport{2, 2, 2});
    bool satisfied = false;
    // Bound the search so a misconfiguration cannot loop forever.
    for (int iter = 0; iter < 64 && !satisfied; ++iter) {
        const auto degrees = enumerateDegrees(supports);
        const double sparsest = degrees.back().density;
        if (static_cast<int>(degrees.size()) >= min_degrees &&
            sparsest <= min_density + 1e-12) {
            satisfied = true;
            break;
        }
        auto smallest = std::min_element(
            supports.begin(), supports.end(),
            [](const RankSupport &a, const RankSupport &b) {
                return a.h_max < b.h_max;
            });
        ++smallest->h_max;
    }
    if (!satisfied)
        return std::nullopt;
    HssDesignConfig config;
    config.name = std::to_string(ranks) + "-rank";
    config.supports = supports;
    config.num_pes = 2;
    config.num_arrays = 1;
    return config;
}

} // namespace

std::vector<HssDesignReport>
DesignSpaceExplorer::rankAblation(int min_degrees,
                                  double min_density) const
{
    std::vector<HssDesignConfig> configs;
    for (int ranks = 1; ranks <= 3; ++ranks) {
        const auto found =
            searchRankConfig(ranks, min_degrees, min_density);
        if (found)
            configs.push_back(*found);
        else
            warn(msgOf("rankAblation: ", ranks,
                       "-rank search did not converge"));
    }
    return analyzeMany(configs);
}

} // namespace highlight
