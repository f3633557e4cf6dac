/**
 * @file
 * Per-rank pruning rules for the fibertree-based sparsity specification
 * (paper Sec 3.2, Table 2).
 *
 * Each rank of a specification carries a rule saying whether and how
 * coordinates in its fibers may be pruned: not at all (dense),
 * anywhere (unconstrained), or following one of a set of G:H patterns.
 */

#ifndef HIGHLIGHT_SPARSITY_RANK_RULE_HH
#define HIGHLIGHT_SPARSITY_RANK_RULE_HH

#include <string>
#include <vector>

#include "sparsity/gh_pattern.hh"

namespace highlight
{

/**
 * A pruning rule attached to one rank of a sparsity specification.
 */
class RankRule
{
  public:
    enum class Kind
    {
        Dense,         ///< No pruning at this rank (no "(<rule>)").
        Unconstrained, ///< Arbitrary coordinates may be pruned.
        Gh,            ///< One of a set of allowed G:H patterns.
    };

    /** A rank with no pruning rule. */
    static RankRule dense();

    /** A rank whose coordinates may be pruned arbitrarily. */
    static RankRule unconstrained();

    /** A rank constrained to exactly one G:H pattern. */
    static RankRule gh(GhPattern pattern);

    /** A rank allowed any of several G:H patterns (e.g. 2:{2..4}). */
    static RankRule ghSet(std::vector<GhPattern> patterns);

    Kind kind() const { return kind_; }
    bool isDense() const { return kind_ == Kind::Dense; }
    bool isUnconstrained() const { return kind_ == Kind::Unconstrained; }
    bool isGh() const { return kind_ == Kind::Gh; }

    /** Allowed patterns (empty unless kind() == Gh). */
    const std::vector<GhPattern> &patterns() const { return patterns_; }

    /** The single pattern; fatal if the rule allows several or none. */
    const GhPattern &single() const;

    /**
     * Rule text as it appears inside "(...)" in Table 2: "" for dense,
     * "Unconstrained", "2:4", or "2:{2<=H<=4}" for compact ranges.
     */
    std::string str() const;

  private:
    RankRule(Kind kind, std::vector<GhPattern> patterns)
        : kind_(kind), patterns_(std::move(patterns))
    {
    }

    Kind kind_ = Kind::Dense;
    std::vector<GhPattern> patterns_;
};

} // namespace highlight

#endif // HIGHLIGHT_SPARSITY_RANK_RULE_HH
