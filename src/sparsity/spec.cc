#include "sparsity/spec.hh"

#include <sstream>

#include "common/logging.hh"

namespace highlight
{

SparsitySpec::SparsitySpec(std::vector<RankSpec> ranks)
    : ranks_(std::move(ranks))
{
    if (ranks_.empty())
        fatal("SparsitySpec: no ranks");
}

double
SparsitySpec::structuredDensity() const
{
    double d = 1.0;
    for (const auto &r : ranks_) {
        if (r.rule.isUnconstrained())
            fatal("structuredDensity: unconstrained rank has no fixed "
                  "density");
        if (r.rule.isGh())
            d *= r.rule.single().density();
    }
    return d;
}

std::string
SparsitySpec::str() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
        if (i)
            oss << "->";
        oss << ranks_[i].name;
        const std::string rule = ranks_[i].rule.str();
        if (!rule.empty())
            oss << "(" << rule << ")";
    }
    return oss.str();
}

SparsitySpec
channelStructuredSpec()
{
    return SparsitySpec({{"C", RankRule::unconstrained()},
                         {"R", RankRule::dense()},
                         {"S", RankRule::dense()}});
}

SparsitySpec
stc24Spec()
{
    return SparsitySpec({{"RS", RankRule::dense()},
                         {"C1", RankRule::dense()},
                         {"C0", RankRule::gh(GhPattern(2, 4))}});
}

SparsitySpec
exampleTwoRankHssSpec()
{
    return SparsitySpec({{"RS", RankRule::dense()},
                         {"C2", RankRule::dense()},
                         {"C1", RankRule::gh(GhPattern(3, 4))},
                         {"C0", RankRule::gh(GhPattern(2, 4))}});
}

std::vector<NamedSpec>
table2Specs()
{
    std::vector<NamedSpec> rows;
    rows.push_back({"Unstructured", "[15]",
                    SparsitySpec({{"CRS", RankRule::unconstrained()}})});
    rows.push_back({"Channel", "[17] (Fig 4(a))", channelStructuredSpec()});
    rows.push_back(
        {"Sub-kernel", "[35]",
         SparsitySpec({{"C", RankRule::dense()},
                       {"RS", RankRule::ghSet({GhPattern(1, 4),
                                               GhPattern(2, 4),
                                               GhPattern(3, 4)})}})});
    rows.push_back({"Sub-channel", "[32] (Fig 4(b))", stc24Spec()});
    rows.push_back(
        {"Sub-channel", "[60]",
         SparsitySpec({{"RS", RankRule::dense()},
                       {"C1", RankRule::dense()},
                       {"C0", RankRule::gh(GhPattern(4, 16))}})});
    rows.push_back(
        {"Sub-channel", "[30]",
         SparsitySpec({{"RS", RankRule::dense()},
                       {"C1", RankRule::dense()},
                       {"C0", RankRule::ghSet({GhPattern(1, 8),
                                               GhPattern(2, 8),
                                               GhPattern(3, 8),
                                               GhPattern(4, 8),
                                               GhPattern(5, 8),
                                               GhPattern(6, 8),
                                               GhPattern(7, 8),
                                               GhPattern(8, 8)})}})});
    rows.push_back({"Sub-channel (two-rank HSS)", "Fig 5",
                    exampleTwoRankHssSpec()});
    return rows;
}

} // namespace highlight
