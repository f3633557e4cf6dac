/**
 * @file
 * HSS design-space exploration (paper Sec 5, Fig 6).
 *
 * Given candidate hardware configurations — how many HSS ranks, which
 * fixed G and H range per rank, and how the SAFs are laid out across
 * PEs and arrays — the explorer reports each design's supported
 * sparsity degrees (a degree's density is its relative processing
 * latency), its per-rank Hmax, and its muxing sparsity tax. This
 * regenerates the S-vs-SS comparison of Fig 6(a)/(b) and the
 * rank-count ablation.
 */

#ifndef HIGHLIGHT_CORE_EXPLORER_HH
#define HIGHLIGHT_CORE_EXPLORER_HH

#include <string>
#include <vector>

#include "energy/mux_model.hh"
#include "sparsity/hss.hh"

namespace highlight
{

/** One candidate HSS hardware design. */
struct HssDesignConfig
{
    std::string name;
    /** Per-rank support, rank 0 first. */
    std::vector<RankSupport> supports;
    int num_pes = 2;
    int num_arrays = 1;
};

/** Exploration report for one design. */
struct HssDesignReport
{
    std::string name;
    std::size_t num_ranks = 0;
    std::vector<int> hmax_per_rank;       ///< Rank 0 first.
    std::vector<HssDegree> degrees;       ///< Descending density.
    long total_mux2 = 0;                  ///< 2:1-mux equivalents.
    double mux_area_um2 = 0.0;
    double mux_energy_per_step_pj = 0.0;
};

/**
 * The explorer.
 */
class DesignSpaceExplorer
{
  public:
    /** Analyze one configuration. */
    HssDesignReport analyze(const HssDesignConfig &config) const;

    /** analyze() each configuration, in input order. */
    std::vector<HssDesignReport> analyzeMany(
        const std::vector<HssDesignConfig> &configs) const;

    /** Fig 6's one-rank design S: 2:{2..16}, 2 PEs. */
    static HssDesignConfig designS();

    /** Fig 6's two-rank design SS: 2:{2..8} x 2:{2..4}, 2 PEs. */
    static HssDesignConfig designSS();

    /**
     * Rank-count ablation: designs with 1..3 ranks covering at least
     * `min_degrees` distinct degrees down to `min_density`, choosing
     * the smallest Hmax values that reach the target.
     */
    std::vector<HssDesignReport> rankAblation(int min_degrees,
                                              double min_density) const;

  private:
    ComponentLibrary lib_;
};

} // namespace highlight

#endif // HIGHLIGHT_CORE_EXPLORER_HH
