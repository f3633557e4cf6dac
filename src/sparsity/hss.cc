#include "sparsity/hss.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "common/logging.hh"

namespace highlight
{

namespace
{

/** Tolerance for comparing density fractions built from small ints. */
constexpr double kDensityEps = 1e-12;

} // namespace

HssSpec::HssSpec(std::vector<GhPattern> rank_patterns)
    : patterns_(std::move(rank_patterns))
{
    if (patterns_.empty())
        fatal("HssSpec: no ranks");
}

HssSpec
HssSpec::dense()
{
    return HssSpec({GhPattern(1, 1)});
}

const GhPattern &
HssSpec::rank(std::size_t n) const
{
    if (n >= patterns_.size())
        panic(msgOf("HssSpec::rank: rank ", n, " out of range ",
                    patterns_.size()));
    return patterns_[n];
}

double
HssSpec::density() const
{
    double d = 1.0;
    for (const auto &p : patterns_)
        d *= p.density();
    return d;
}

double
HssSpec::sparsity() const
{
    return 1.0 - density();
}

bool
HssSpec::isDense() const
{
    for (const auto &p : patterns_) {
        if (!p.isDense())
            return false;
    }
    return true;
}

std::int64_t
HssSpec::blockSpan(std::size_t n) const
{
    if (n > patterns_.size())
        panic(msgOf("HssSpec::blockSpan: rank ", n, " out of range"));
    std::int64_t span = 1;
    for (std::size_t i = 0; i < n; ++i)
        span *= patterns_[i].h;
    return span;
}

std::int64_t
HssSpec::totalSpan() const
{
    return blockSpan(patterns_.size());
}

std::string
HssSpec::str() const
{
    std::string out;
    for (std::size_t i = patterns_.size(); i-- > 0;) {
        out += 'C';
        out += std::to_string(i);
        out += '(';
        out += patterns_[i].str();
        out += ')';
        if (i)
            out += "->";
    }
    return out;
}

std::vector<GhPattern>
RankSupport::patterns() const
{
    if (g < 1 || h_min < g || h_max < h_min)
        fatal(msgOf("RankSupport: invalid G=", g, " H range [", h_min,
                    ", ", h_max, "]"));
    std::vector<GhPattern> out;
    for (int h = h_min; h <= h_max; ++h)
        out.emplace_back(g, h);
    return out;
}

std::string
RankSupport::str() const
{
    if (h_min == h_max)
        return GhPattern(g, h_min).str();
    std::ostringstream oss;
    oss << g << ":{" << h_min << "<=H<=" << h_max << "}";
    return oss.str();
}

std::vector<HssDegree>
enumerateDegrees(const std::vector<RankSupport> &supports)
{
    if (supports.empty())
        fatal("enumerateDegrees: no rank supports");

    // Cross product of per-rank patterns, rank 0 first in supports.
    std::vector<HssDegree> degrees;
    std::vector<GhPattern> current;
    std::function<void(std::size_t)> recurse = [&](std::size_t rank) {
        if (rank == supports.size()) {
            HssSpec spec{current};
            degrees.push_back({spec, spec.density()});
            return;
        }
        for (const auto &p : supports[rank].patterns()) {
            current.push_back(p);
            recurse(rank + 1);
            current.pop_back();
        }
    };
    recurse(0);

    // Sort by descending density; among equal densities prefer the
    // smallest total span (cheapest blocks) and then the witness that
    // concentrates sparsity at rank 0 (largest H0) — the form other
    // G:H designs can also consume (e.g. 2:4 x 4:4 over 2:2 x 4:8 for
    // 50%), matching the paper's pattern choices. Duplicates drop.
    std::sort(degrees.begin(), degrees.end(),
              [](const HssDegree &a, const HssDegree &b) {
                  if (std::abs(a.density - b.density) > kDensityEps)
                      return a.density > b.density;
                  if (a.spec.totalSpan() != b.spec.totalSpan())
                      return a.spec.totalSpan() < b.spec.totalSpan();
                  return a.spec.rank(0).h > b.spec.rank(0).h;
              });
    std::vector<HssDegree> unique;
    for (const auto &d : degrees) {
        if (unique.empty() ||
            std::abs(unique.back().density - d.density) > kDensityEps) {
            unique.push_back(d);
        }
    }
    return unique;
}

std::vector<double>
composeDensitySets(const std::vector<double> &s0,
                   const std::vector<double> &s1)
{
    std::vector<double> products;
    for (double a : s0) {
        for (double b : s1)
            products.push_back(a * b);
    }
    std::sort(products.begin(), products.end(), std::greater<>());
    std::vector<double> unique;
    for (double p : products) {
        if (unique.empty() ||
            std::abs(unique.back() - p) > kDensityEps) {
            unique.push_back(p);
        }
    }
    return unique;
}

HssSpec
chooseSpecForDensity(const std::vector<RankSupport> &supports,
                     double target_density)
{
    const auto degrees = enumerateDegrees(supports);
    // degrees are sorted by descending density; take the last (sparsest)
    // entry whose density is still >= target.
    const HssDegree *best = nullptr;
    for (const auto &d : degrees) {
        if (d.density >= target_density - kDensityEps)
            best = &d;
        else
            break;
    }
    if (best == nullptr)
        fatal(msgOf("chooseSpecForDensity: no supported degree >= ",
                    target_density));
    return best->spec;
}

int
worstCaseWindowOccupancy(const HssSpec &spec, int window)
{
    if (window < 1)
        fatal(msgOf("worstCaseWindowOccupancy: window ", window));
    // Walk ranks bottom-up: occ(n) = worst nonzeros in one rank-n
    // block. An aligned window of `window` values covers whole rank-n
    // blocks as long as the block span divides the window.
    int occ_per_block = 1; // a single value
    std::int64_t span = 1;
    for (std::size_t n = 0; n < spec.numRanks(); ++n) {
        const GhPattern &p = spec.rank(n);
        const std::int64_t next_span = span * p.h;
        if (next_span > window) {
            // The window covers window/span blocks out of the Hn in
            // this rank's group; at most min(Gn, window/span) of them
            // can be non-empty.
            const auto blocks_in_window =
                static_cast<int>(window / span);
            return std::min(p.g, blocks_in_window) * occ_per_block;
        }
        occ_per_block *= p.g;
        span = next_span;
    }
    // Window spans one or more full top-level groups.
    const auto groups = static_cast<int>(window / span);
    return std::max(1, groups) * occ_per_block;
}

std::vector<RankSupport>
highlightWeightSupport()
{
    // Table 3: C1(4:{4<=H<=8}) -> C0(2:{2<=H<=4}); rank 0 listed first.
    return {{2, 2, 4}, {4, 4, 8}};
}

std::vector<RankSupport>
fig6DesignS()
{
    return {{2, 2, 16}};
}

std::vector<RankSupport>
fig6DesignSS()
{
    return {{2, 2, 4}, {2, 2, 8}};
}

} // namespace highlight
