#include "accel/s2ta.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "format/hierarchical_cp.hh"
#include "model/density.hh"

namespace highlight
{

S2taLike::S2taLike() : Accelerator(s2taArch()) {}

int
S2taLike::quantizeG8(double density)
{
    return std::max(1, static_cast<int>(std::ceil(density * 8.0 - 1e-9)));
}

bool
S2taLike::supports(const GemmWorkload &w) const
{
    // Operand A must be structured with G <= 4 of 8 (>= 50% sparse):
    // purely dense layers and unstructured operands cannot be
    // expressed (Sec 7.2/7.3).
    if (w.a.kind != PatternKind::Hss)
        return false;
    if (worstCaseWindowOccupancy(w.a.hss, 8) > 4)
        return false;
    // Operand B: dense, unstructured (density-bound), or structured
    // all map onto {G<=8}:8 blocks.
    return true;
}

EvalResult
S2taLike::evaluate(const GemmWorkload &w) const
{
    if (!supports(w)) {
        return unsupportedResult(
            w, "operand A must be structured C0({G<=4}:8); dense or "
               "unstructured A is unsupported");
    }

    const int g_a = worstCaseWindowOccupancy(w.a.hss, 8);
    const int g_b = quantizeG8(w.b.density);

    TrafficParams p;
    p.m = w.m;
    p.k = w.k;
    p.n = w.n;

    // Both operands stored at their quantized block occupancy with
    // 3-bit intra-block offsets.
    p.a_stored_density = g_a / 8.0;
    p.a_meta_bits_per_word = bitsFor(8);
    p.b_stored_density = g_b / 8.0;
    p.b_meta_bits_per_word = bitsFor(8);

    // A-side skipping: weights are static, so the schedule can skip
    // their zero blocks — but the PE provisions 4 lanes per 8-block,
    // so the speedup saturates at 2x even for sparser operands ("does
    // not fully exploit the available speedup", Sec 7.2).
    const double time_a = std::max(g_a, 4) / 8.0;
    // B-side: both operands are sparse at the *same* rank, so turning
    // activation sparsity into time would need a sparse-sparse
    // intersection with variable-rate operand delivery — the VFMU
    // capability HighLight introduces (Sec 6.3.2) and the balance
    // problem DSSO's alternating dense ranks sidestep (Sec 7.5). The
    // rigid block schedule instead converts B sparsity into *energy*:
    // non-matching pairs are gated and B is stored compressed.
    p.time_fraction = time_a;
    p.utilization = 1.0;

    p.effectual_mac_fraction = w.a.density * w.b.density;
    p.gate_ineffectual = true;
    p.b_fetch_fraction = 1.0; // the stream already holds only G_b of 8

    // Dual-side selection: each lane muxes both its A and B operands
    // from blocks of 8.
    p.mux_pj_per_step = static_cast<double>(arch_.numMacs()) * 2.0 *
                        lib_.muxSelectPj(8);
    // The 64B register files cannot hold operands stationary: A values
    // re-stream from the GLB every step.
    p.a_stream_per_step = true;

    EvalResult r = evaluateTraffic(arch_, lib_, p);
    r.workload = w.name;
    r.note = "A as " + std::to_string(g_a) + ":8, B as " +
             std::to_string(g_b) + ":8";
    return r;
}

std::vector<BreakdownEntry>
S2taLike::areaBreakdown() const
{
    auto area = baseAreaBreakdown();
    // Two 8-to-1 muxes per MAC lane (A side and B side).
    area.push_back({"saf", static_cast<double>(arch_.numMacs()) * 2.0 *
                               lib_.muxAreaUm2(8)});
    return area;
}

} // namespace highlight
