/**
 * @file
 * Cycle-level functional simulator of the HighLight datapath
 * (paper Sec 6: the down-sized architecture of Fig 10, parameterized).
 *
 * The simulator executes a real GEMM with an HSS operand A and a dense
 * or unstructured operand B, reproducing the paper's processing flow:
 *
 *  - operand A is compressed into the hierarchical CP format (Fig 9)
 *    and held stationary per PE, one rank-0 block per PE, reused
 *    across all operand-B columns (Sec 6.3.1);
 *  - the rank-1 skipping SAF distributes only non-empty blocks
 *    (Sec 6.3.2), fed by a VFMU doing variable-shift streaming over
 *    aligned GLB rows (Fig 11), with per-set shift counts taken from
 *    the operand-B metadata when B is compressed (Fig 12);
 *  - the rank-0 skipping SAF muxes each MAC's B value by CP offset
 *    (Sec 6.3.3); B zeros are gated, spending the cycle but no MAC
 *    energy (Sec 6.4).
 *
 * Outputs are numerically exact (checked against referenceGemm in the
 * tests) and every component exposes activity counters that
 * integration tests cross-check against the analytical model.
 */

#ifndef HIGHLIGHT_MICROSIM_SIMULATOR_HH
#define HIGHLIGHT_MICROSIM_SIMULATOR_HH

#include <cstdint>
#include <vector>

#include "microsim/glb.hh"
#include "microsim/pe.hh"
#include "microsim/vfmu.hh"
#include "sparsity/hss.hh"
#include "tensor/dense_tensor.hh"

namespace highlight
{

class HierarchicalCpMatrix;
class OperandBStream;

/** Static configuration of the simulated datapath. */
struct MicrosimConfig
{
    /** GLB fetch granularity in words (Fig 11 uses 16). */
    int glb_row_words = 16;
    /**
     * VFMU capacity in words; 0 = auto (2 * H1 * H0 of the operand-A
     * spec, the paper's "2 x Hmax blocks", rounded up to cover at
     * least two GLB rows).
     */
    int vfmu_capacity_words = 0;
    /** Stream operand B compressed (Sec 6.4) or dense. */
    bool compress_b = false;
    /**
     * Output rows executed per shared operand-B pass (the software
     * analogue of the PE array's column broadcast: one VFMU stream
     * feeds a whole group of rows instead of each row restreaming B
     * privately). 0 = auto (kDefaultGroupRows, clamped to M). Any
     * value produces byte-identical outputs and counters — fidelity
     * counters are accounted restream-equivalently per row — so this
     * is purely a host-performance knob.
     */
    int group_rows = 0;

    /** The auto resolution of group_rows = 0. */
    static constexpr int kDefaultGroupRows = 8;
};

/** Aggregated activity of one simulation. */
struct SimStats
{
    std::int64_t cycles = 0;
    std::int64_t a_words_loaded = 0;  ///< Stationary A loads (incl. dummies).
    std::int64_t psum_updates = 0;    ///< RF partial-sum updates.
    std::int64_t dummy_blocks = 0;    ///< Padded rank-1 slots processed.
    GlbStats glb_b;
    VfmuStats vfmu;
    PeStats pe; ///< Summed over PEs.

    /** Fold another stats block in (every counter is additive). */
    void accumulate(const SimStats &other);
};

/** Output tensor plus activity counters. */
struct SimResult
{
    DenseTensor output;
    SimStats stats;

    /**
     * Speedup vs. a dense datapath of the same width: dense block
     * steps / executed steps. Returns 0 when nothing was executed
     * (stats.cycles == 0) instead of dividing by zero.
     */
    double speedupVsDense(std::int64_t m, std::int64_t k,
                          std::int64_t n) const;
};

/**
 * Build the operand-B GLB stream in (group-major, column-minor) order:
 * the H0*H1 values one A group needs for one output column, all
 * columns of a group before the next group — so each VFMU shift
 * delivers one set while A stays stationary. `b` must be K x N with K
 * divisible by `set_span`. This is the single source of the stream
 * ordering, used by run() and by tests that drive RowWorker directly.
 */
std::vector<float> buildOrderedBStream(const DenseTensor &b,
                                       std::int64_t set_span);

/**
 * Read-only per-run context shared by every row worker: the compressed
 * operand A, the once-built operand-B stream (packed nonzeros plus
 * three-level metadata when compressed), and the resolved datapath
 * geometry. Built once by HighlightSimulator::run(); all referenced
 * objects must outlive the workers.
 */
struct SimContext
{
    const HierarchicalCpMatrix *a_cp = nullptr;
    const OperandBStream *b_comp = nullptr; ///< Null when B streams dense.
    const float *stream = nullptr;          ///< GLB backing words.
    std::int64_t stream_len = 0;            ///< Stream length in words.
    int glb_row_words = 16;
    int vfmu_capacity = 0;
    int g0 = 1, h0 = 1; ///< Rank-0 pattern (MAC lanes per PE).
    int g1 = 1, h1 = 1; ///< Rank-1 pattern (PE count).
    bool two_rank = false;
    std::int64_t groups = 0; ///< K / (H0*H1).
    std::int64_t n = 0;      ///< Output columns.
};

/**
 * The steady state of the datapath for a contiguous group of output
 * rows: one GLB view over the shared stream, one VFMU, a per-row
 * G1-PE array, and all loop scratch — constructed once (per
 * thread-pool slot) and reset per group. A group performs ONE shared
 * VFMU pass over the operand-B stream and fans every decoded/expanded
 * block out to the group's per-row PE accumulation states, mirroring
 * the hardware's column broadcast — instead of each row restreaming B
 * through a private VFMU.
 *
 * Fidelity counters stay restream-equivalent: the shared pass's
 * GLB/VFMU activity is a pure function of the stream and the shift
 * sequence (it does not depend on the A row), so it is accounted once
 * per row of the group — byte-identical totals to ungrouped serial
 * execution at any group size and any thread count. Groups are
 * shared-nothing, so any number of workers can run disjoint groups
 * concurrently. runGroup() never allocates.
 */
class RowGroupWorker
{
  public:
    /**
     * @param ctx            The shared read-only run context.
     * @param group_capacity Max rows per runGroup() call (scratch and
     *                       PE state are sized for this many rows).
     */
    explicit RowGroupWorker(const SimContext &ctx,
                            int group_capacity = 1);

    RowGroupWorker(const RowGroupWorker &) = delete;
    RowGroupWorker &operator=(const RowGroupWorker &) = delete;

    /**
     * Simulate output rows [row0, row0 + nrows), accumulating into
     * out[r*N .. +N) for each row r, via one shared operand-B pass.
     * `nrows` must be in [1, groupCapacity()]. Panics if the
     * operand-B stream ends early (a short VFMU read would otherwise
     * silently compute with stale scratch from the previous step).
     * An all-zero compressed set leaves the outputs untouched instead
     * of adding +0.0, which is the same bits for every entry except
     * -0.0; a fresh output tensor holds +0.0 and never gains a -0.0.
     */
    void runGroup(std::int64_t row0, int nrows, DenseTensor &out);

    /** Single-row convenience (the ungrouped steady state). */
    void
    runRow(std::int64_t row, DenseTensor &out)
    {
        runGroup(row, 1, out);
    }

    /** Activity accumulated over every row this worker has run. */
    const SimStats &stats() const { return stats_; }

    int groupCapacity() const { return group_capacity_; }

  private:
    /**
     * By value: SimContext is a flat bundle of pointers and geometry,
     * so copying it costs nothing and a worker can never outlive a
     * caller's context object — only the pointees must outlive the
     * worker (as the SimContext doc requires).
     */
    const SimContext ctx_;
    const int group_capacity_;
    MicroGlb glb_; ///< Own view (fetch cursor + stats) of the stream.
    Vfmu vfmu_;
    /** group_capacity * G1 PEs, row-major (row slot r owns [r*G1, +G1)). */
    std::vector<MicroPe> pes_;
    /** Selected rank-1 offsets, group_capacity * G1, row-major. */
    std::vector<std::uint8_t> block_offsets_;
    std::vector<float> words_;  ///< One shift's packed words.
    /**
     * H1 aligned blocks, flat h1*h0, shared by every row of the
     * group (the expansion of a block depends only on the operand-B
     * metadata, never on the row). On the compressed-B path only the
     * blocks some row's rank-1 SAF selected are zeroed and scattered,
     * each once per step; unselected slots hold stale words no PE
     * ever reads.
     */
    std::vector<float> blocks_;
    /**
     * The distinct rank-1 offsets the group's rows selected for the
     * current K-group, in first-selection order (a prefix of at most
     * H1 entries is valid), and the per-H1-slot flags that collect
     * them.
     */
    std::vector<std::uint8_t> selected_blocks_;
    std::vector<std::uint8_t> block_selected_;
    /** Per-row-slot CP row pointers, refreshed at group start. */
    std::vector<const float *> row_vals_;
    std::vector<const std::uint8_t *> row_offs0_;
    std::vector<const std::uint8_t *> row_offs1_;
    SimStats stats_;
};

/**
 * The historical single-row worker name; a RowGroupWorker with the
 * default group capacity of one row.
 */
using RowWorker = RowGroupWorker;

/**
 * The micro-simulator.
 */
class HighlightSimulator
{
  public:
    explicit HighlightSimulator(MicrosimConfig config = {});

    /**
     * Run C = A * B, parallelized across row groups on
     * ThreadPool::global(): rows are partitioned into fixed
     * contiguous groups of config().group_rows (auto-resolved), each
     * group shares one operand-B pass, and groups fan out across the
     * pool. Groups are shared-nothing, every worker's counters are
     * folded in a fixed order on the calling thread, and each output
     * element is produced by exactly the serial operation sequence —
     * results and every SimStats counter are byte-identical at any
     * thread count and any group size.
     *
     * @param a      Weight matrix (M x K), must conform to `a_spec`.
     * @param a_spec The HSS pattern of A (1 or 2 ranks); the PE count
     *               equals G1 (or 1 for single-rank specs).
     * @param b      Activation matrix (K x N), dense or sparse.
     */
    SimResult run(const DenseTensor &a, const HssSpec &a_spec,
                  const DenseTensor &b) const;

    const MicrosimConfig &config() const { return config_; }

  private:
    MicrosimConfig config_;
};

} // namespace highlight

#endif // HIGHLIGHT_MICROSIM_SIMULATOR_HH
