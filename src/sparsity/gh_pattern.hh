/**
 * @file
 * G:H structured sparsity patterns (paper Sec 2.2.2).
 *
 * A G:H pattern mandates at most G nonzero elements within every block
 * of H elements, giving a density of G/H. NVIDIA STC's 2:4 is the
 * canonical example. HSS composes one G:H pattern per rank.
 */

#ifndef HIGHLIGHT_SPARSITY_GH_PATTERN_HH
#define HIGHLIGHT_SPARSITY_GH_PATTERN_HH

#include <string>

namespace highlight
{

/**
 * One G:H pattern. The fiber shape at the rank carrying the pattern is
 * H (the block size); the max fiber occupancy is G.
 */
struct GhPattern
{
    int g = 1; ///< Max nonzeros per block (fraction numerator).
    int h = 1; ///< Block size (fraction denominator).

    GhPattern() = default;
    /** Construct and validate: requires 1 <= g <= h. */
    GhPattern(int g_in, int h_in);

    /** Fraction of elements allowed nonzero: G/H. */
    double density() const;

    /** True for G == H (no pruning constraint). */
    bool isDense() const { return g == h; }

    /** Canonical "G:H" string, e.g. "2:4". */
    std::string str() const;

    bool
    operator==(const GhPattern &other) const
    {
        return g == other.g && h == other.h;
    }
};

} // namespace highlight

#endif // HIGHLIGHT_SPARSITY_GH_PATTERN_HH
