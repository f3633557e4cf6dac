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
#include <memory>
#include <vector>

#include "microsim/glb.hh"
#include "microsim/lane_kernel.hh"
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
    /** GLB fetch granularity in words (Fig 11's row width). */
    static constexpr int glb_row_words = 16;
    /** Stream operand B compressed (Sec 6.4) or dense. */
    bool compress_b = false;
    /**
     * Output rows one RowGroupWorker steps together, the unit of work
     * run() hands to the pool. 0 = auto (kDefaultGroupRows, clamped
     * to M). Any value produces byte-identical outputs and counters —
     * fidelity counters are accounted restream-equivalently per row —
     * so this is purely a host-performance knob.
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
 * ordering, used by run() and by tests that drive RowGroupWorker
 * directly.
 */
std::vector<float> buildOrderedBStream(const DenseTensor &b,
                                       std::int64_t set_span);

class OperandBPass;

/**
 * Read-only per-run context shared by every row worker: the compressed
 * operand A, the once-built operand-B stream (packed nonzeros plus
 * three-level metadata when compressed), the resolved datapath
 * geometry and, when run() built it, the decoded operand-B pass. Built
 * once by HighlightSimulator::run(); all referenced objects must
 * outlive the workers.
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
    /**
     * Operand B decoded once for the whole run, shared by every
     * worker. Null in a hand-built context: each worker then runs the
     * same pass itself on its first runGroup() and keeps it.
     */
    const OperandBPass *b_pass = nullptr;
};

/**
 * The context HighlightSimulator::run() gives its row workers, before
 * it adds the operand-B pass, for anything else that drives
 * RowGroupWorker or OperandBPass directly: the geometry of `a_cp`'s
 * spec, `config`'s GLB row width, the automatic VFMU capacity (2 * H1 *
 * H0, the paper's "2 x Hmax blocks", raised to at least two GLB rows
 * and to H1 * H0 words plus one GLB row), and a GLB view over
 * `b_comp`'s packed nonzeros when it is set, else over the dense
 * ordered `stream` (buildOrderedBStream's output). `n` is the output
 * column count. The context points into `a_cp`, `b_comp` and `stream`.
 */
SimContext makeSimContext(const HierarchicalCpMatrix &a_cp,
                          const OperandBStream *b_comp,
                          const std::vector<float> &stream, std::int64_t n,
                          const MicrosimConfig &config = {});

/**
 * Operand B decoded once for a whole run: the paper's single VFMU
 * streaming B out of the GLB for the PE array to broadcast to every
 * output row (Sec 6.3.2, Figs 11-12). One MicroGlb + Vfmu traversal of
 * the context's stream in (K-group, column) order expands every set
 * into a read-only table; nothing in it depends on the output row, so
 * every row group steps its lanes against the same table.
 *
 * The table is column-major per K-group, [K-group][slot][column]: a
 * slot is one of a set's H1 * H0 expanded words (slot j * H0 + o is
 * word o of the set's block j), and slot(g, s) holds its value in all N
 * output columns, contiguous, so a stationary A lane sweeps every
 * column in one unit-stride loop. On the compressed-B path every block
 * is scattered from the level-2/3 metadata and holds +0.0 where B has
 * no stored nonzero. The traversal also counts each slot's nonzero
 * columns, a live lane's effectual MACs. The GLB and VFMU counters are
 * those of the one traversal; a worker charges them once per row it
 * steps (restream-equivalent accounting).
 */
class OperandBPass
{
  public:
    /**
     * Traverse `ctx`'s stream. Fatal unless the context's operand-B
     * side is self-consistent (as RowGroupWorker requires); panics if
     * the stream ends early, since a short VFMU read would otherwise
     * leave a set holding words of no set.
     */
    explicit OperandBPass(const SimContext &ctx);

    /** K-group `g`'s slot `s` in all numColumns() output columns. */
    const float *
    slot(std::int64_t g, int s) const
    {
        return table_.data() + (g * slots_ + s) * columns_;
    }

    /** The columns whose word in K-group `g`'s slot `s` is nonzero. */
    std::int64_t
    nonzeros(std::int64_t g, int s) const
    {
        return nonzeros_[static_cast<std::size_t>(g * slots_ + s)];
    }

    std::int64_t numKGroups() const { return groups_; }
    /** Slots per K-group: H1 * H0. */
    std::int64_t slotsPerGroup() const { return slots_; }
    std::int64_t numColumns() const { return columns_; }

    const GlbStats &glbStats() const { return glb_stats_; }
    const VfmuStats &vfmuStats() const { return vfmu_stats_; }

  private:
    std::int64_t groups_;
    std::int64_t slots_;
    std::int64_t columns_;
    std::vector<float> table_;
    std::vector<std::int64_t> nonzeros_;
    GlbStats glb_stats_;
    VfmuStats vfmu_stats_;
};

/**
 * The steady state of the datapath for a contiguous group of output
 * rows against the operand-B pass. The worker owns no GLB and no VFMU:
 * B was decoded once by OperandBPass, and every row of the group reads
 * the same expanded slots, mirroring the hardware's column broadcast.
 * Constructed once (per thread-pool slot) and reused across groups.
 *
 * For each K-group, each row of the group holds its G1 stationary A
 * blocks, read straight from the row's CP payload, and each of its
 * live lanes (a nonzero A whose offset falls inside the block) sweeps
 * every output column of the slot its rank-1 and rank-0 muxes select,
 * in one unit-stride loop. Per (row, column), the PE partial sums and
 * the row partial sum are accumulated in double in exactly the order
 * of G1 MicroPe steps (lanes in order within a PE, PEs in order within
 * a row, each sum starting from +0.0), gated through gatedProduct(),
 * and the row adds its sum to the output once per K-group. The only
 * additions left out cannot change a bit: a dummy lane's or an offset
 * past H0's, which only ever add +0.0, and PE 0's fold into the +0.0
 * row sum, since PE 0 adds its lanes into the row sum directly. That
 * loop nest is the lane kernel (microsim/lane_kernel.hh), compiled per
 * ISA level with the same bits in each; runGroup() runs the widest
 * variant the host supports. The effectual MACs are the live lanes'
 * slot nonzero counts; cycles, partial-sum updates, A loads, mux
 * selections and gated MACs are charged once per group in closed form.
 *
 * Fidelity counters stay restream-equivalent: the pass's GLB/VFMU
 * activity is a pure function of the stream and the shift sequence
 * (it does not depend on the A row), so it is accounted once per row
 * of the group — byte-identical totals to ungrouped serial execution
 * at any group size and any thread count. Groups are shared-nothing,
 * so any number of workers can run disjoint groups concurrently.
 *
 * The pass comes from ctx.b_pass. A context without one (hand-built
 * by tests and benchmarks) makes the worker run OperandBPass itself on
 * its first runGroup() and keep it. Once the worker has its pass,
 * runGroup() never allocates: its per-column sums are sized at
 * construction.
 */
class RowGroupWorker
{
  public:
    /**
     * @param ctx            The shared read-only run context. Fatal
     *                       unless it is self-consistent: a_cp set and
     *                       compressed with exactly (g0:h0) and, iff
     *                       two_rank, (g1:h1) (else g1 = h1 = 1), over
     *                       groups * h0 * h1 columns; b_comp, if set,
     *                       built for the same (h0, h1) over groups * n
     *                       sets; stream_len no longer than the words
     *                       those sets hold (a shorter view is left to
     *                       OperandBPass's short-read panic); and
     *                       b_pass, if set, holding groups K-groups of
     *                       h0 * h1 slots over n columns.
     * @param group_capacity Max rows per runGroup() call.
     */
    explicit RowGroupWorker(const SimContext &ctx,
                            int group_capacity = 1);

    RowGroupWorker(const RowGroupWorker &) = delete;
    RowGroupWorker &operator=(const RowGroupWorker &) = delete;

    /**
     * Simulate output rows [row0, row0 + nrows), accumulating into
     * out[r*N .. +N) for each row r, against the operand-B pass.
     * `nrows` must be in [1, group_capacity], the rows must exist in
     * operand A, and `out` must be a rank-2 tensor of ctx.n columns and
     * at least row0 + nrows rows (fatal otherwise). Without a shared
     * pass the first call runs OperandBPass, which panics on a
     * truncated stream. On both B paths each row adds every K-group's
     * row sum to its outputs, +0.0 where every lane gated: that turns
     * an output's -0.0 into +0.0, but a fresh output tensor holds +0.0
     * and never gains a -0.0.
     */
    void runGroup(std::int64_t row0, int nrows, DenseTensor &out);

    /**
     * As above with a given variant of the lane kernel, one of
     * laneKernelVariants()' (the tests and bench_kernels compare
     * them); every variant gives the same outputs and counters.
     */
    void runGroup(std::int64_t row0, int nrows, DenseTensor &out,
                  LaneKernel kernel);

    /** Activity accumulated over every row this worker has run. */
    const SimStats &stats() const { return stats_; }

  private:
    /**
     * By value: SimContext is a flat bundle of pointers and geometry,
     * so copying it costs nothing and a worker can never outlive a
     * caller's context object — only the pointees must outlive the
     * worker (as the SimContext doc requires).
     */
    const SimContext ctx_;
    const int group_capacity_;
    /** laneKernel(), resolved once so runGroup() never allocates. */
    const LaneKernel kernel_;
    /** ctx_.b_pass, or own_pass_ once the first runGroup() built it. */
    const OperandBPass *pass_;
    std::unique_ptr<OperandBPass> own_pass_;
    /** One row's PE and row partial sums, one per output column. */
    std::vector<double> pe_sum_, row_sum_;
    SimStats stats_;
};

/**
 * The micro-simulator.
 */
class HighlightSimulator
{
  public:
    explicit HighlightSimulator(MicrosimConfig config = {});

    /**
     * Run C = A * B in five phases: compress A; build the ordered
     * operand-B stream; compress it when config().compress_b; decode
     * it in one OperandBPass, on the calling thread; then step the row
     * groups on ThreadPool::global() and fold their counters. Rows are
     * partitioned into fixed contiguous groups of config().group_rows
     * (auto-resolved), every group steps against the one pass, and
     * groups fan out across the pool. Groups are shared-nothing, every
     * worker's counters are folded in a fixed order on the calling
     * thread, and each output element is produced by exactly the
     * serial operation sequence — results and every SimStats counter
     * are byte-identical at any thread count and any group size.
     *
     * @param a      Weight matrix (M x K), must conform to `a_spec`.
     * @param a_spec The HSS pattern of A (1 or 2 ranks); the PE count
     *               equals G1 (or 1 for single-rank specs).
     * @param b      Activation matrix (K x N), dense or sparse.
     *
     * A NaN in either operand is fatal, naming the operand, row and
     * column: the bits of a sum of two NaNs depend on the operand
     * order, which the lane kernel's ISA variants need not share.
     * +-inf is legal.
     */
    SimResult run(const DenseTensor &a, const HssSpec &a_spec,
                  const DenseTensor &b) const;

    const MicrosimConfig &config() const { return config_; }

  private:
    MicrosimConfig config_;
};

} // namespace highlight

#endif // HIGHLIGHT_MICROSIM_SIMULATOR_HH
