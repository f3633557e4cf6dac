/**
 * @file
 * Cycle-level functional simulator of the DSSO datapath (paper
 * Sec 7.5) — the dual-side HSS design with alternating dense ranks
 * that the paper sketches as future work, implemented here.
 *
 * Operand A follows C1(dense)->C0(G:H): every rank-1 block is present
 * and carries per-value rank-0 offsets. Operand B follows
 * C1(Gb:Hb)->C0(dense): whole rank-1 blocks (spans of H0 values along
 * K) are present or absent, with per-block rank-1 offsets. Because the
 * operands are never sparse at the same rank, each rank's skipping SAF
 * performs a dense-sparse intersection:
 *
 *  - rank 1: only B's non-empty blocks are processed — the schedule
 *    skips whole blocks in time (perfectly balanced, since B's
 *    structure bounds the per-group occupancy);
 *  - rank 0: within a processed block, the A-side mux selects B values
 *    by A's CP offsets, exactly as in HighLight's PEs.
 *
 * Total speedup is therefore (H0/G0) * (Hb/Gb) — the multiplicative
 * dual-side speedup of Fig 17.
 */

#ifndef HIGHLIGHT_MICROSIM_DSSO_SIM_HH
#define HIGHLIGHT_MICROSIM_DSSO_SIM_HH

#include <cstdint>

#include "microsim/pe.hh"
#include "microsim/simulator.hh"
#include "sparsity/hss.hh"
#include "tensor/dense_tensor.hh"

namespace highlight
{

/** DSSO simulation statistics. */
struct DssoSimStats
{
    std::int64_t cycles = 0;
    std::int64_t b_blocks_processed = 0; ///< Non-empty rank-1 blocks.
    std::int64_t b_blocks_skipped = 0;   ///< Empty blocks skipped.
    std::int64_t glb_b_words = 0;        ///< B words fetched.
    std::int64_t a_words_loaded = 0;
    PeStats pe;
};

/** DSSO simulation result. */
struct DssoSimResult
{
    DenseTensor output;
    DssoSimStats stats;
};

/**
 * The DSSO micro-simulator. It has one PE per present B block of a
 * rank-1 group (Gb of them), the count at which every step is fully
 * utilized.
 */
class DssoSimulator
{
  public:
    /**
     * Run C = A * B.
     *
     * @param a       M x K operand conforming to C0(a_rank0) per row.
     * @param a_rank0 A's rank-0 pattern (e.g. 2:4); higher ranks dense.
     *                Its H may be at most kMaxOffsetSpan (the lanes'
     *                offsets are 8-bit).
     * @param b       K x N operand whose columns conform to
     *                C1(b_rank1) at block granularity a_rank0.h with
     *                dense rank 0.
     * @param b_rank1 B's rank-1 pattern (e.g. 2:4 .. 2:8).
     */
    DssoSimResult run(const DenseTensor &a, const GhPattern &a_rank0,
                      const DenseTensor &b,
                      const GhPattern &b_rank1) const;
};

} // namespace highlight

#endif // HIGHLIGHT_MICROSIM_DSSO_SIM_HH
