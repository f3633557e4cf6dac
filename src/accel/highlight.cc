#include "accel/highlight.hh"

#include "common/logging.hh"
#include "format/hierarchical_cp.hh"
#include "model/density.hh"

namespace highlight
{

namespace
{

/** G per rank of the HighLight skipping SAFs (rank 0 first). */
const std::vector<int> kGPerRank = {2, 4};
/** Hmax per rank (rank 0 first). */
const std::vector<int> kHmaxPerRank = {4, 8};

} // namespace

HighLightAccel::HighLightAccel()
    : Accelerator(highlightArch()),
      mux_model_(buildHssMuxModel(kGPerRank, kHmaxPerRank,
                                  highlightArch().pes_per_array,
                                  highlightArch().num_arrays))
{
}

bool
HighLightAccel::fitsWeightSupport(const HssSpec &spec)
{
    const auto supports = highlightWeightSupport();
    if (spec.numRanks() > supports.size())
        return false;
    for (std::size_t n = 0; n < spec.numRanks(); ++n) {
        const GhPattern &p = spec.rank(n);
        const RankSupport &s = supports[n];
        if (p.isDense())
            continue; // a dense rank needs no SAF support
        if (p.g != s.g || p.h < s.h_min || p.h > s.h_max)
            return false;
    }
    return true;
}

bool
HighLightAccel::supports(const GemmWorkload &w) const
{
    // A: dense runs as the 4:4 -> 2:2 degenerate degree; HSS must fit
    // the SAF ranges. Unstructured A is not expressible.
    if (w.a.kind == PatternKind::Unstructured)
        return false;
    if (w.a.kind == PatternKind::Hss && !fitsWeightSupport(w.a.hss))
        return false;
    // B: dense or unstructured both fine (structured B also processes
    // correctly; it is simply treated as unstructured).
    return true;
}

EvalResult
HighLightAccel::evaluate(const GemmWorkload &w) const
{
    if (!supports(w)) {
        return unsupportedResult(
            w, "operand A must be dense or HSS within "
               "C1(4:{4<=H<=8})->C0(2:{2<=H<=4})");
    }

    const bool a_sparse = w.a.kind == PatternKind::Hss &&
                          !w.a.hss.isDense();
    const double a_density = a_sparse ? w.a.hss.density() : 1.0;
    const bool b_sparse = w.b.density < 1.0;

    TrafficParams p;
    p.m = w.m;
    p.k = w.k;
    p.n = w.n;

    // --- operand A: hierarchical CP storage + hierarchical skipping ---
    int h0 = 2, h1 = 4; // degenerate dense geometry
    if (a_sparse) {
        const HssSpec &spec = w.a.hss;
        h0 = spec.rank(0).h;
        h1 = spec.numRanks() > 1 ? spec.rank(1).h : 4;
        p.a_stored_density = a_density;
        // Per stored word: rank-0 offset, plus the rank-1 block offset
        // amortized over the G0 = 2 values it covers (Fig 9).
        p.a_meta_bits_per_word =
            bitsFor(h0) + static_cast<double>(bitsFor(h1)) / 2.0;
        // Hierarchical skipping: total speedup is the product of the
        // per-rank speedups = 1/density, with perfect balance.
        p.time_fraction = a_density;
        p.utilization = 1.0;
    }

    // --- operand B: compression + gating (energy, not time) ---
    // Compression pays ~4 metadata bits per stored word, so it only
    // wins below ~75% density; nearly-dense activations are stored
    // uncompressed and exploited by gating alone (cf. the Fig 13
    // footnote evaluating the 25%-sparse column conservatively).
    if (b_sparse && w.b.density < 0.75) {
        p.b_stored_density = w.b.density;
        // Three-level metadata (Sec 6.4): intra-block offsets
        // (2 bits), block end addresses and per-set counts amortized
        // over the nonzeros they describe.
        p.b_meta_bits_per_word = bitsFor(4) + 2.0;
        // Only stored nonzeros stream from the GLB through the VFMU.
        p.b_fetch_fraction = w.b.density;
    }

    // Effectual MACs need both operands nonzero; every other occupied
    // lane slot is gated (Sec 6.4: "letting the MAC unit stay idle").
    p.effectual_mac_fraction = w.a.density * w.b.density;
    p.gate_ineffectual = true;
    // Gated lanes also skip their partial-sum update; an output-row
    // update happens whenever any of its spatial-K lanes fired.
    p.psum_fraction =
        blockNonEmptyProb(w.b.density, arch_.spatial_k) ;

    // --- SAF costs ---
    // Rank-0: every MAC lane selects its B value through an
    // Hmax0-to-1 mux each step. Rank-1: each array distributes blocks
    // through G1 Hmax1-to-1 selections per step.
    p.mux_pj_per_step =
        static_cast<double>(arch_.numMacs()) *
            lib_.muxSelectPj(kHmaxPerRank[0]) +
        static_cast<double>(arch_.num_arrays) * kGPerRank[1] *
            lib_.muxSelectPj(kHmaxPerRank[1]);
    // VFMU: every fetched B word is written into and read out of the
    // small streaming buffer (Sec 6.3.2).
    p.saf_pj_per_b_fetch = 2.0 * lib_.regAccessPj();

    EvalResult r = evaluateTraffic(arch_, lib_, p);
    r.workload = w.name;
    if (a_sparse)
        r.note = "A as " + w.a.hss.str() + ", speedup " +
                 formatG6(1.0 / a_density);
    return r;
}

std::vector<BreakdownEntry>
HighLightAccel::areaBreakdown() const
{
    auto area = baseAreaBreakdown();
    double saf = mux_model_.areaUm2(lib_);
    // VFMU per array: a register buffer holding 2 x Hmax1 blocks of
    // Hmax0 words (Sec 6.3.2) plus the 4-to-2 start/end address muxes.
    const std::int64_t vfmu_bits =
        static_cast<std::int64_t>(2) * kHmaxPerRank[1] * kHmaxPerRank[0] *
        lib_.tech().word_bits;
    saf += arch_.num_arrays *
           (lib_.regArrayAreaUm2(vfmu_bits) + 2.0 * lib_.muxAreaUm2(4));
    // Compression unit (Fig 10): per-array comparator/encoder chain for
    // recompressing output activations, sized like a 32-lane encoder.
    saf += arch_.num_arrays * 32.0 * lib_.muxAreaUm2(4);
    area.push_back({"saf", saf});
    return area;
}

} // namespace highlight
