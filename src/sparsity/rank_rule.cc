#include "sparsity/rank_rule.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace highlight
{

RankRule
RankRule::dense()
{
    return RankRule(Kind::Dense, {});
}

RankRule
RankRule::unconstrained()
{
    return RankRule(Kind::Unconstrained, {});
}

RankRule
RankRule::gh(GhPattern pattern)
{
    return RankRule(Kind::Gh, {pattern});
}

RankRule
RankRule::ghSet(std::vector<GhPattern> patterns)
{
    if (patterns.empty())
        fatal("RankRule::ghSet: empty pattern set");
    return RankRule(Kind::Gh, std::move(patterns));
}

const GhPattern &
RankRule::single() const
{
    if (kind_ != Kind::Gh || patterns_.size() != 1)
        fatal("RankRule::single: rule is not a single G:H pattern");
    return patterns_.front();
}

std::string
RankRule::str() const
{
    switch (kind_) {
      case Kind::Dense:
        return "";
      case Kind::Unconstrained:
        return "Unconstrained";
      case Kind::Gh:
        break;
    }
    if (patterns_.size() == 1)
        return patterns_.front().str();

    // Compact form for a fixed-G contiguous H range: "2:{2<=H<=4}".
    const int g = patterns_.front().g;
    bool fixed_g = true;
    int hmin = patterns_.front().h;
    int hmax = patterns_.front().h;
    for (const auto &p : patterns_) {
        fixed_g = fixed_g && p.g == g;
        hmin = std::min(hmin, p.h);
        hmax = std::max(hmax, p.h);
    }
    if (fixed_g &&
        static_cast<int>(patterns_.size()) == hmax - hmin + 1) {
        std::ostringstream oss;
        oss << g << ":{" << hmin << "<=H<=" << hmax << "}";
        return oss.str();
    }
    std::ostringstream oss;
    for (std::size_t i = 0; i < patterns_.size(); ++i) {
        if (i)
            oss << "|";
        oss << patterns_[i].str();
    }
    return oss.str();
}

} // namespace highlight
