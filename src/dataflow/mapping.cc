#include "dataflow/mapping.hh"

#include <algorithm>

#include "common/logging.hh"

namespace highlight
{

GemmTiling
computeTiling(const ArchSpec &arch, std::int64_t m, std::int64_t k,
              std::int64_t n, double a_stored_density,
              double b_stored_density)
{
    if (m < 1 || k < 1 || n < 1)
        fatal(msgOf("computeTiling: bad GEMM ", m, "x", k, "x", n));
    // Written so that a NaN fails too: it would reach the float-to-int
    // tile casts below.
    if (!(0.0 < a_stored_density && a_stored_density <= 1.0) ||
        !(0.0 < b_stored_density && b_stored_density <= 1.0))
        fatal(msgOf("computeTiling: stored densities must be in (0, 1], "
                    "got A ", a_stored_density, " and B ",
                    b_stored_density));
    const GlbPartition part;

    GemmTiling t;
    t.m = m;
    t.k = k;
    t.n = n;

    const double glb_words = static_cast<double>(arch.glbDataWords());
    const double a_words_per_row =
        static_cast<double>(k) * a_stored_density;
    const double b_words_per_col =
        static_cast<double>(k) * b_stored_density;

    // A tile: as many full-K rows as the A share holds (at least the
    // spatial M so the MAC grid can be fed).
    t.m_tile = static_cast<std::int64_t>(glb_words * part.a_share /
                                         a_words_per_row);
    t.m_tile = std::clamp<std::int64_t>(t.m_tile, 1, m);
    // B tile: as many full-K columns as the B share holds.
    t.n_tile = static_cast<std::int64_t>(glb_words * part.b_share /
                                         b_words_per_col);
    t.n_tile = std::clamp<std::int64_t>(t.n_tile, 1, n);

    t.m_passes = (m + t.m_tile - 1) / t.m_tile;
    t.n_passes = (n + t.n_tile - 1) / t.n_tile;
    t.a_resident = t.m_passes == 1;
    t.b_resident = t.n_passes == 1;
    return t;
}

} // namespace highlight
