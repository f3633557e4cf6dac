/**
 * @file
 * HSS design-space exploration (paper Sec 5, Fig 6).
 *
 * Given candidate hardware configurations — how many HSS ranks, which
 * fixed G and H range per rank, and how the SAFs are laid out across
 * PEs and arrays — the explorer reports each design's supported
 * sparsity degrees, its per-rank Hmax, its relative processing latency
 * at each degree, and its muxing sparsity tax. This regenerates the
 * S-vs-SS comparison of Fig 6(a)/(b) and the rank-count ablation.
 */

#ifndef HIGHLIGHT_CORE_EXPLORER_HH
#define HIGHLIGHT_CORE_EXPLORER_HH

#include <functional>
#include <string>
#include <utility>
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

    /** Relative processing latency at each degree (= density). */
    std::vector<double> latencies() const;
};

/**
 * The explorer.
 */
class DesignSpaceExplorer
{
  public:
    explicit DesignSpaceExplorer(
        ComponentLibrary lib = ComponentLibrary());

    /** Analyze one configuration. */
    HssDesignReport analyze(const HssDesignConfig &config) const;

    /**
     * Analyze a batch of configurations on the global thread pool.
     * Results come back in input order, bit-identical to calling
     * analyze() serially on each config.
     */
    std::vector<HssDesignReport> analyzeMany(
        const std::vector<HssDesignConfig> &configs) const;

    /**
     * Streaming analyzeMany: on_report(index, report) fires as each
     * config's analysis lands (on whichever worker produced it, under
     * an internal lock — callbacks never overlap). The returned
     * vector is still in input order and bit-identical to the
     * non-streaming overload; only the callback order is
     * scheduling-dependent.
     */
    std::vector<HssDesignReport> analyzeMany(
        const std::vector<HssDesignConfig> &configs,
        const std::function<void(std::size_t, const HssDesignReport &)>
            &on_report) const;

    /**
     * Deterministic candidate partition for sharded multi-process
     * sweeps: the contiguous half-open range [begin, end) of
     * candidates owned by shard `index` of `count`. A pure function
     * of (total, index, count) — every shard computes the same
     * partition with no coordination, ranges are disjoint, their
     * union covers [0, total), and sizes differ by at most one
     * (floor(total*i/count) boundaries). count must be >= 1 and
     * index in [0, count); violations are fatal.
     */
    static std::pair<std::size_t, std::size_t> shardRange(
        std::size_t total, int index, int count);

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
