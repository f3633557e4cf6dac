#include "accel/stc.hh"

#include "format/hierarchical_cp.hh"

namespace highlight
{

StcLike::StcLike() : Accelerator(stcArch()) {}

bool
StcLike::fitsSparseMode(const OperandSparsity &a)
{
    // The 2:4 datapath is correct for any operand whose aligned
    // 4-windows never hold more than 2 nonzeros.
    return a.kind == PatternKind::Hss &&
           worstCaseWindowOccupancy(a.hss, 4) <= 2;
}

bool
StcLike::supports(const GemmWorkload &w) const
{
    // Dense A runs in dense mode; structured A must fit 2:4.
    // Unstructured A cannot be expressed in the fixed block format.
    if (w.a.kind == PatternKind::Unstructured)
        return false;
    if (w.a.kind == PatternKind::Hss && !fitsSparseMode(w.a))
        return false;
    return true;
}

EvalResult
StcLike::evaluate(const GemmWorkload &w) const
{
    if (!supports(w)) {
        return unsupportedResult(
            w, "operand A is neither dense nor expressible as "
               "C0({G<=2}:4)");
    }

    const bool sparse_mode = fitsSparseMode(w.a);

    TrafficParams p;
    p.m = w.m;
    p.k = w.k;
    p.n = w.n;

    if (sparse_mode) {
        // A stored as 2-of-4 blocks: half the words plus a 2-bit
        // offset per stored word (the hardware pads sparser-than-2:4
        // operands with zero-valued dummy lanes).
        p.a_stored_density = 0.5;
        p.a_meta_bits_per_word = bitsFor(4);
        // Fixed 2x skipping regardless of how sparse A really is: the
        // paper's "maximum of 2x speedup" limitation.
        p.time_fraction = 0.5;
        // Only lanes holding real nonzeros do useful work; with no
        // B-side gating the dummy lanes still burn full MAC energy.
        p.effectual_mac_fraction = std::min(w.a.density, 0.5);
        p.gate_ineffectual = false;
        // Selection muxes: each lane picks its B value from the block
        // of 4 (Fig 7-style 4-to-1 selection).
        p.mux_pj_per_step =
            static_cast<double>(arch_.numMacs()) * lib_.muxSelectPj(4);
    } else {
        // Dense mode: behaves like TC, paying only the smaller GLB
        // data partition (the reserved metadata SRAM sits idle).
        p.time_fraction = 1.0;
        p.effectual_mac_fraction = 1.0;
    }

    EvalResult r = evaluateTraffic(arch_, lib_, p);
    r.workload = w.name;
    if (sparse_mode)
        r.note = "2:4 skipping mode";
    return r;
}

std::vector<BreakdownEntry>
StcLike::areaBreakdown() const
{
    auto area = baseAreaBreakdown();
    // One 4-to-1 B-select mux per MAC lane.
    area.push_back({"saf", static_cast<double>(arch_.numMacs()) *
                               lib_.muxAreaUm2(4)});
    return area;
}

} // namespace highlight
