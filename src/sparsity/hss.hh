/**
 * @file
 * Hierarchical structured sparsity (paper Sec 4).
 *
 * An N-rank HSS assigns a G:H pattern to each of N ranks; the overall
 * density is the product of the per-rank fractions:
 *     density = prod_{n=0}^{N-1} Gn/Hn        (paper Sec 4.1.2)
 * Rank 0 is the innermost rank (single-value granularity); rank n's
 * blocks span prod_{i<n} Hi values. The degree algebra here also
 * implements Fig 1 (composing density-degree sets by multiplying
 * fractions) and the degree enumeration behind Fig 6.
 */

#ifndef HIGHLIGHT_SPARSITY_HSS_HH
#define HIGHLIGHT_SPARSITY_HSS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sparsity/gh_pattern.hh"

namespace highlight
{

/**
 * A concrete N-rank HSS instance: one G:H pattern per sparse rank,
 * rank 0 (innermost, single-value granularity) first.
 */
class HssSpec
{
  public:
    HssSpec() = default;

    /** Construct from per-rank patterns, rank 0 first. */
    explicit HssSpec(std::vector<GhPattern> rank_patterns);

    /** Number of sparse ranks N. */
    std::size_t numRanks() const { return patterns_.size(); }

    /** Pattern at rank n (0 = innermost). */
    const GhPattern &rank(std::size_t n) const;

    /** All patterns, rank 0 first. */
    const std::vector<GhPattern> &patterns() const { return patterns_; }

    /** density = prod Gn/Hn. */
    double density() const;

    /** sparsity = 1 - density. */
    double sparsity() const;

    /** True if every rank is G==H. */
    bool isDense() const;

    /**
     * Number of values spanned by one rank-n block:
     * prod_{i<n} Hi (so rank 0 blocks span 1 value and a "group" at
     * rank n covers Hn blocks of that span).
     */
    std::int64_t blockSpan(std::size_t n) const;

    /** Values spanned by one full top-rank group: prod of all Hi. */
    std::int64_t totalSpan() const;

    /**
     * Succinct notation with innermost rank last, using the paper's
     * convention of naming sparse ranks C0..C(N-1):
     * e.g. "C1(3:4)->C0(2:4)".
     */
    std::string str() const;

    bool operator==(const HssSpec &other) const
    {
        return patterns_ == other.patterns_;
    }

  private:
    std::vector<GhPattern> patterns_; // rank 0 first
};

/**
 * One supported sparsity degree of an HSS hardware design: the spec and
 * its density.
 */
struct HssDegree
{
    HssSpec spec;
    double density = 1.0;
};

/**
 * The per-rank flexibility of an HSS *hardware design*: a fixed G and a
 * contiguous range of supported H values (paper Sec 5.1: skipping favors
 * fixed G equal to a factor of the parallel hardware units).
 */
struct RankSupport
{
    int g = 1;
    int h_min = 1;
    int h_max = 1;

    /** All patterns G:h for h in [h_min, h_max]. */
    std::vector<GhPattern> patterns() const;
};

/**
 * Enumerate every distinct sparsity degree reachable by choosing one
 * pattern per rank from the given supports (the cross product of Fig 1,
 * deduplicated). Sorted by decreasing density; each degree keeps one
 * witness spec (the one with the smallest total span).
 */
std::vector<HssDegree> enumerateDegrees(
    const std::vector<RankSupport> &supports);

/**
 * Compose two sets of density fractions by multiplication (Fig 1).
 * Returns the deduplicated, descending product set.
 */
std::vector<double> composeDensitySets(const std::vector<double> &s0,
                                       const std::vector<double> &s1);

/**
 * Pick the sparsest supported HSS spec whose density is >= the target
 * density (i.e. never prunes more than requested). Fatal if even the
 * densest supported degree is below the target.
 */
HssSpec chooseSpecForDensity(const std::vector<RankSupport> &supports,
                             double target_density);

/**
 * Worst-case nonzero count inside an aligned window of `window` values
 * under the given HSS spec. Lets a G:H design decide whether a foreign
 * HSS pattern still satisfies its own block constraint (e.g. an STC can
 * run any operand whose aligned 4-windows never exceed 2 nonzeros).
 */
int worstCaseWindowOccupancy(const HssSpec &spec, int window);

/** HighLight's operand-A support (Table 3): C1(4:{4..8})->C0(2:{2..4}). */
std::vector<RankSupport> highlightWeightSupport();

/** Fig 6's one-rank design "S": 2:{2..16} at a single rank. */
std::vector<RankSupport> fig6DesignS();

/** Fig 6's two-rank design "SS": 2:{2..8} at rank 1, 2:{2..4} at rank 0. */
std::vector<RankSupport> fig6DesignSS();

} // namespace highlight

#endif // HIGHLIGHT_SPARSITY_HSS_HH
