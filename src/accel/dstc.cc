#include "accel/dstc.hh"

#include "common/logging.hh"
#include "model/density.hh"

namespace highlight
{

DstcLike::DstcLike() : Accelerator(dstcArch()) {}

bool
DstcLike::supports(const GemmWorkload &) const
{
    // Unstructured support subsumes everything: dense, structured, and
    // arbitrary sparsity all process correctly.
    return true;
}

EvalResult
DstcLike::evaluate(const GemmWorkload &w) const
{
    TrafficParams p;
    p.m = w.m;
    p.k = w.k;
    p.n = w.n;

    // Bitmask compression: only nonzeros stored, but the mask costs
    // one bit per *dense* element — 1/density bits per stored word.
    p.a_stored_density = w.a.density;
    p.a_meta_bits_per_word = 1.0 / w.a.density;
    p.b_stored_density = w.b.density;
    p.b_meta_bits_per_word = 1.0 / w.b.density;

    // Outer product computes only nonzero pairs; balance degrades when
    // per-column occupancies don't hit lane-width multiples. Structured
    // operands would balance perfectly; DSTC sees them as unstructured.
    // Occupancy is counted over the fetch-group sub-tensor (two
    // 32-wide vectors); only occupancies that are multiples of the
    // lane width balance perfectly (Sec 2.2.1).
    constexpr int kBalanceBlock = 2 * kLaneWidth;
    const double util_a =
        w.a.kind == PatternKind::Dense
            ? 1.0
            : unstructuredUtilization(w.a.density, kLaneWidth,
                                      kBalanceBlock);
    const double util_b =
        w.b.kind == PatternKind::Dense
            ? 1.0
            : unstructuredUtilization(w.b.density, kLaneWidth,
                                      kBalanceBlock);
    p.time_fraction = w.a.density * w.b.density;
    p.utilization = util_a * util_b;

    // Every executed pair is effectual (both operands nonzero).
    p.effectual_mac_fraction = w.a.density * w.b.density;
    p.gate_ineffectual = true; // idle lanes from imbalance clock-gate

    // The sparsity tax: partial products scatter individually into the
    // accumulation storage (Sec 2.2.1 "large, and thus expensive,
    // accumulation buffers to hold the now randomly distributed
    // output"). Each update is a 32-bit read-modify-write of a large
    // banked buffer (2 words at a 32KB-class access cost), and the
    // output-stationary tiling re-streams operands once per psum tile.
    p.accum = AccumStyle::OuterProduct;
    p.accum_access_pj = 2.0 * lib_.sramAccessPj(32.0);

    // Merge/coordinate-compute network energy per step.
    p.mux_pj_per_step =
        static_cast<double>(arch_.numMacs()) * lib_.muxSelectPj(4);

    EvalResult r = evaluateTraffic(arch_, lib_, p);
    r.workload = w.name;
    r.note = "utilization " + formatG6(util_a * util_b);
    return r;
}

std::vector<BreakdownEntry>
DstcLike::areaBreakdown() const
{
    auto area = baseAreaBreakdown();
    // Merge network + coordinate queues; comparable to a dual-side
    // 8-wide selection per lane plus output coordinate registers.
    const double merge =
        static_cast<double>(arch_.numMacs()) * 2.0 * lib_.muxAreaUm2(8);
    const double coord_regs = lib_.regArrayAreaUm2(
        static_cast<std::int64_t>(arch_.numMacs()) * 2 * 16);
    area.push_back({"saf", merge + coord_regs});
    return area;
}

} // namespace highlight
