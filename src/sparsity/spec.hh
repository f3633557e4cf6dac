/**
 * @file
 * Fibertree-based sparsity specification (paper Sec 3.2, Table 2).
 *
 * A specification is an ordered list of ranks (outermost first), each
 * carrying a pruning rule. Printing a spec reproduces the paper's
 * notation, e.g. "RS->C1->C0(2:4)". Factory functions build the seven
 * example patterns of Table 2 so the table can be regenerated verbatim.
 */

#ifndef HIGHLIGHT_SPARSITY_SPEC_HH
#define HIGHLIGHT_SPARSITY_SPEC_HH

#include <string>
#include <vector>

#include "sparsity/rank_rule.hh"

namespace highlight
{

/** One rank of a sparsity specification: a name and a pruning rule. */
struct RankSpec
{
    std::string name; ///< Rank name, e.g. "C1" or "RS".
    RankRule rule = RankRule::dense();
};

/**
 * An ordered fibertree-based sparsity specification.
 */
class SparsitySpec
{
  public:
    SparsitySpec() = default;

    /** Construct from ranks listed outermost first. */
    explicit SparsitySpec(std::vector<RankSpec> ranks);

    const std::vector<RankSpec> &ranks() const { return ranks_; }

    /**
     * Overall density if every G:H rank is fully occupied:
     * prod(Gn/Hn) over G:H ranks (unconstrained ranks contribute an
     * unknown factor and make this fatal).
     */
    double structuredDensity() const;

    /**
     * The paper's arrow notation, e.g. "RS->C1->C0(2:4)" or
     * "C(Unconstrained)->R->S".
     */
    std::string str() const;

  private:
    std::vector<RankSpec> ranks_;
};

/**
 * Table 2's example patterns, in row order. Each entry pairs the
 * conventional (informal) classification with the precise spec.
 */
struct NamedSpec
{
    std::string conventional; ///< e.g. "Sub-channel".
    std::string citation;     ///< e.g. "[32] (Fig 4(b))".
    SparsitySpec spec;
};

/** The seven rows of Table 2. */
std::vector<NamedSpec> table2Specs();

/** Fig 4(a): channel-based structured, C(Unconstrained)->R->S. */
SparsitySpec channelStructuredSpec();

/** Fig 4(b): 2:4 structured, RS->C1->C0(2:4). */
SparsitySpec stc24Spec();

/** Fig 5: the example two-rank HSS, RS->C2->C1(3:4)->C0(2:4). */
SparsitySpec exampleTwoRankHssSpec();

} // namespace highlight

#endif // HIGHLIGHT_SPARSITY_SPEC_HH
