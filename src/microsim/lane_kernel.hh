/**
 * @file
 * The microsim's steady-state arithmetic, written once and compiled
 * for several x86 ISA levels, one of which is picked at run time.
 *
 * A lane kernel runs one row group of RowGroupWorker::runGroup: the
 * K-group -> row -> PE -> lane loop nest of the paper's Sec 6.3
 * datapath, where every live lane of a stationary rank-0 A block
 * sweeps the B slot its muxes select across all output columns, each
 * PE's sums fold into the row's, and the row adds its sums into its
 * outputs. The body is compiled for the build's own flags (the
 * baseline, x86-64's SSE2 in a generic build) and, on x86 under GCC or
 * Clang, through target attributes for AVX2 and AVX-512F. The widest
 * variant the host supports runs; other targets and compilers build
 * the baseline alone.
 *
 * Every variant computes the same bits. -ffp-contract=off (set for the
 * whole build) rules out fused multiply-adds; vectorizing across
 * columns keeps each column's additions in the scalar order; and
 * HighlightSimulator::run rejects NaN operands, the one input whose
 * result bits depend on the operand order the compiler picks per ISA
 * (with two NaN payloads, x86 returns the first operand's).
 *
 * Internal to the microsim: RowGroupWorker runs laneKernel(), and only
 * the tests and bench_kernels reach a specific variant, through
 * laneKernelVariants(). Nothing else selects one.
 */

#ifndef HIGHLIGHT_MICROSIM_LANE_KERNEL_HH
#define HIGHLIGHT_MICROSIM_LANE_KERNEL_HH

#include <cstdint>
#include <vector>

namespace highlight
{

struct SimContext;
class OperandBPass;

/** One row group's steady state, as runGroup hands it to a kernel. */
struct LaneGroup
{
    const SimContext *ctx;
    const OperandBPass *pass;
    std::int64_t row0;
    int nrows;
    /** One row's PE and row partial sums: ctx->n scratch doubles each. */
    double *pe_sum;
    double *row_sum;
    /** The row-major output: row r's column c is out[r * ctx->n + c]. */
    float *out;
};

/** The counters only the lane loop nest can count. */
struct LaneCounts
{
    std::int64_t effectual = 0;    ///< Live lanes' nonzero B columns.
    std::int64_t dummy_blocks = 0; ///< PE blocks whose lanes all gate.
};

using LaneKernel = LaneCounts (*)(const LaneGroup &group);

/** One compiled variant of the lane kernel. */
struct LaneKernelVariant
{
    const char *name;    ///< "baseline", "avx2" or "avx512f".
    bool host_supported; ///< The running CPU and OS can execute it.
    LaneKernel run;
};

/**
 * Every variant this build compiled, the baseline first and the widest
 * last: three on x86 under GCC or Clang, the baseline alone elsewhere.
 */
const std::vector<LaneKernelVariant> &laneKernelVariants();

/** The widest host-supported variant, picked once per process. */
LaneKernel laneKernel();

} // namespace highlight

#endif // HIGHLIGHT_MICROSIM_LANE_KERNEL_HH
