#include "sparsity/gh_pattern.hh"

#include "common/logging.hh"

namespace highlight
{

GhPattern::GhPattern(int g_in, int h_in) : g(g_in), h(h_in)
{
    if (g < 1 || h < 1 || g > h)
        fatal(msgOf("GhPattern: invalid G:H = ", g, ":", h,
                    " (need 1 <= G <= H)"));
}

double
GhPattern::density() const
{
    return static_cast<double>(g) / static_cast<double>(h);
}

std::string
GhPattern::str() const
{
    return std::to_string(g) + ":" + std::to_string(h);
}

} // namespace highlight
