/**
 * @file
 * GEMM tiling onto an architecture (the "mapping" of Timeloop [40]).
 *
 * The canonical mapping splits the GLB data partition among an A tile,
 * a B tile and an output tile. Tile extents adapt to operand
 * compression: a sparser stored A lets more rows fit, cutting the
 * number of B re-fetch passes from DRAM — a first-order energy effect
 * of compression the paper relies on.
 */

#ifndef HIGHLIGHT_DATAFLOW_MAPPING_HH
#define HIGHLIGHT_DATAFLOW_MAPPING_HH

#include <cstdint>

#include "arch/arch_spec.hh"

namespace highlight
{

/** Fractions of the GLB data partition assigned to each tenant. */
struct GlbPartition
{
    double a_share = 0.4;
    double b_share = 0.4;
    double out_share = 0.2;
};

/**
 * The resolved tiling of one GEMM on one architecture.
 */
struct GemmTiling
{
    std::int64_t m = 0, k = 0, n = 0;

    std::int64_t m_tile = 0; ///< A rows resident per GLB tile.
    std::int64_t n_tile = 0; ///< B columns resident per GLB tile.

    std::int64_t m_passes = 0; ///< ceil(M / m_tile): B DRAM re-fetches.
    std::int64_t n_passes = 0; ///< ceil(N / n_tile): A GLB re-reads.

    /** True when a whole operand fits in its GLB share (single pass). */
    bool a_resident = false;
    bool b_resident = false;
};

/**
 * Compute the canonical tiling.
 *
 * @param arch             The architecture (GLB capacity, MAC grid).
 * @param m,k,n            GEMM dimensions.
 * @param a_stored_density Stored fraction of A (compression in effect).
 * @param b_stored_density Stored fraction of B.
 *
 * Each operand's tile gets its GlbPartition share. Fatal unless both
 * stored densities are in (0, 1]; a NaN is rejected too.
 */
GemmTiling computeTiling(const ArchSpec &arch, std::int64_t m,
                         std::int64_t k, std::int64_t n,
                         double a_stored_density, double b_stored_density);

} // namespace highlight

#endif // HIGHLIGHT_DATAFLOW_MAPPING_HH
