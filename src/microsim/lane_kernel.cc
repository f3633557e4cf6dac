#include "microsim/lane_kernel.hh"

#include <algorithm>

#include "format/hierarchical_cp.hh"
#include "microsim/pe.hh"
#include "microsim/simulator.hh"

// Target attributes and __builtin_cpu_supports are GCC and Clang
// extensions for x86; elsewhere the baseline is the only variant.
#if (defined(__GNUC__) || defined(__clang__)) &&                        \
    (defined(__x86_64__) || defined(__i386__))
#define HIGHLIGHT_LANE_KERNEL_X86 1
#define HIGHLIGHT_LANE_KERNEL_INLINE inline __attribute__((always_inline))
#else
#define HIGHLIGHT_LANE_KERNEL_X86 0
#define HIGHLIGHT_LANE_KERNEL_INLINE inline
#endif

namespace highlight
{

namespace
{

/**
 * The one body every variant compiles: it is inlined into each
 * wrapper below and so takes on the wrapper's ISA. RowGroupWorker
 * documents the order of its additions and the ones it leaves out.
 */
HIGHLIGHT_LANE_KERNEL_INLINE LaneCounts
stepLanes(const LaneGroup &group)
{
    const SimContext &ctx = *group.ctx;
    const OperandBPass &pass = *group.pass;
    const HierarchicalCpMatrix &a_cp = *ctx.a_cp;
    const int g0 = ctx.g0, g1 = ctx.g1, h0 = ctx.h0;
    const bool two_rank = ctx.two_rank;
    const std::int64_t n = ctx.n, groups = ctx.groups;
    const std::int64_t row0 = group.row0, row_end = row0 + group.nrows;
    double *const pe_sum = group.pe_sum;
    double *const row_sum = group.row_sum;
    float *const out = group.out;
    LaneCounts counts;
    for (std::int64_t g = 0; g < groups; ++g) {
        for (std::int64_t row = row0; row < row_end; ++row) {
            const HierarchicalCpRow &cp = a_cp.row(row);
            const float *const cp_vals = cp.values().data();
            const std::uint8_t *const cp_offs0 = cp.offsets(0).data();
            const std::uint8_t *const cp_offs1 =
                two_rank ? cp.offsets(1).data() : nullptr;
            std::fill(row_sum, row_sum + n, 0.0);
            for (int p = 0; p < g1; ++p) {
                // Rank-1 skipping SAF: this PE's selected block (real
                // or dummy) stays stationary for the whole K-group.
                const std::int64_t entry = g * g1 + p;
                const int block = two_rank ? cp_offs1[entry] : 0;
                const float *const vals = cp_vals + entry * g0;
                const std::uint8_t *const offs = cp_offs0 + entry * g0;
                // PE 0 adds its lanes straight into the row sums: they
                // start at +0.0 as its own sums would, and folding a PE
                // sum into +0.0 leaves its bits as they are (it is
                // never -0.0, see gatedProduct()).
                double *const sum = p == 0 ? row_sum : pe_sum;
                if (p > 0)
                    std::fill(pe_sum, pe_sum + n, 0.0);
                bool all_dummy = true;
                for (int l = 0; l < g0; ++l) {
                    // Rank-0 mux: a dummy lane (A = 0) or an offset
                    // past the block always gates, and the +0.0 it
                    // would add leaves the partial sums' bits as they
                    // are, so it is skipped.
                    all_dummy &= vals[l] == 0.0f;
                    if (vals[l] == 0.0f || offs[l] >= h0)
                        continue;
                    const double a = vals[l];
                    const int s = block * h0 + offs[l];
                    const float *const b = pass.slot(g, s);
                    counts.effectual += pass.nonzeros(g, s);
                    for (std::int64_t c = 0; c < n; ++c) {
                        const double bc = b[c];
                        sum[c] += gatedProduct(a, bc, bc != 0.0);
                    }
                }
                counts.dummy_blocks += all_dummy;
                if (p > 0)
                    for (std::int64_t c = 0; c < n; ++c)
                        row_sum[c] += pe_sum[c];
            }
            float *const out_row = out + row * n;
            for (std::int64_t c = 0; c < n; ++c)
                out_row[c] += static_cast<float>(row_sum[c]);
        }
    }
    return counts;
}

LaneCounts
stepLanesBaseline(const LaneGroup &group)
{
    return stepLanes(group);
}

#if HIGHLIGHT_LANE_KERNEL_X86
__attribute__((target("avx2"))) LaneCounts
stepLanesAvx2(const LaneGroup &group)
{
    return stepLanes(group);
}

// A bare target("avx512f") keeps the build's preferred vector width,
// and under GCC -march=native on a CPU that prefers 256-bit vectors
// (Sapphire Rapids, for one) sets that to 256, so the variant would
// step its lanes in ymm registers. GCC takes the width as a target
// key; Clang rejects the key and would then drop the whole attribute.
#if defined(__clang__)
#define HIGHLIGHT_LANE_KERNEL_AVX512F "avx512f"
#else
#define HIGHLIGHT_LANE_KERNEL_AVX512F "avx512f,prefer-vector-width=512"
#endif

__attribute__((target(HIGHLIGHT_LANE_KERNEL_AVX512F))) LaneCounts
stepLanesAvx512f(const LaneGroup &group)
{
    return stepLanes(group);
}
#endif

std::vector<LaneKernelVariant>
compiledVariants()
{
#if HIGHLIGHT_LANE_KERNEL_X86
    // Reads CPUID and XGETBV, so a variant counts as supported only
    // where the OS also saves its vector registers.
    __builtin_cpu_init();
    return {{"baseline", true, stepLanesBaseline},
            {"avx2", __builtin_cpu_supports("avx2") != 0, stepLanesAvx2},
            {"avx512f", __builtin_cpu_supports("avx512f") != 0,
             stepLanesAvx512f}};
#else
    return {{"baseline", true, stepLanesBaseline}};
#endif
}

} // namespace

const std::vector<LaneKernelVariant> &
laneKernelVariants()
{
    static const std::vector<LaneKernelVariant> variants =
        compiledVariants();
    return variants;
}

LaneKernel
laneKernel()
{
    static const LaneKernel widest = [] {
        LaneKernel run = nullptr;
        for (const LaneKernelVariant &v : laneKernelVariants())
            if (v.host_supported)
                run = v.run;
        return run;
    }();
    return widest;
}

} // namespace highlight
