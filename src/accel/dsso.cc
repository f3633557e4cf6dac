#include "accel/dsso.hh"

#include "common/logging.hh"
#include "format/hierarchical_cp.hh"

namespace highlight
{

namespace
{

/** A-side rank-0 support: 2:{2..4}. */
bool
fitsASupport(const OperandSparsity &a)
{
    if (a.kind == PatternKind::Dense)
        return true;
    if (a.kind != PatternKind::Hss)
        return false;
    const HssSpec &spec = a.hss;
    // Rank 0 must be 2:{2..4}; all higher ranks must be dense.
    const GhPattern &p0 = spec.rank(0);
    if (!p0.isDense() && (p0.g != 2 || p0.h < 2 || p0.h > 4))
        return false;
    for (std::size_t n = 1; n < spec.numRanks(); ++n) {
        if (!spec.rank(n).isDense())
            return false;
    }
    return true;
}

/** B-side rank-1 support: 2:{2..8} with dense rank 0. */
bool
fitsBSupport(const OperandSparsity &b)
{
    if (b.kind == PatternKind::Dense)
        return true;
    if (b.kind != PatternKind::Hss)
        return false;
    const HssSpec &spec = b.hss;
    if (!spec.rank(0).isDense())
        return false;
    for (std::size_t n = 1; n < spec.numRanks(); ++n) {
        const GhPattern &p = spec.rank(n);
        if (p.isDense())
            continue;
        if (n != 1 || p.g != 2 || p.h < 2 || p.h > 8)
            return false;
    }
    return true;
}

} // namespace

DssoAccel::DssoAccel() : Accelerator(dssoArch()) {}

bool
DssoAccel::supports(const GemmWorkload &w) const
{
    return fitsASupport(w.a) && fitsBSupport(w.b);
}

EvalResult
DssoAccel::evaluate(const GemmWorkload &w) const
{
    if (!supports(w)) {
        return unsupportedResult(
            w, "DSSO needs A in C1(dense)->C0(2:{2..4}) and B in "
               "C1(2:{2..8})->C0(dense)");
    }

    const double da = w.a.density;
    const double db = w.b.density;

    TrafficParams p;
    p.m = w.m;
    p.k = w.k;
    p.n = w.n;

    // Each operand carries offset metadata only for its sparse rank
    // (Sec 7.5): A per-value rank-0 offsets, B per-block rank-1
    // offsets amortized over the dense H0 values in a block.
    if (da < 1.0) {
        p.a_stored_density = da;
        p.a_meta_bits_per_word = bitsFor(4);
    }
    if (db < 1.0) {
        p.b_stored_density = db;
        p.b_meta_bits_per_word = static_cast<double>(bitsFor(8)) / 4.0;
        p.b_fetch_fraction = db;
    }

    // Dual-side skipping: dense-sparse intersections at each rank give
    // multiplicative speedup with perfect balance.
    p.time_fraction = da * db;
    p.utilization = 1.0;
    p.effectual_mac_fraction = da * db;
    p.gate_ineffectual = true;

    // Rank-0 selection per lane plus rank-1 block selection per array.
    p.mux_pj_per_step =
        static_cast<double>(arch_.numMacs()) * lib_.muxSelectPj(4) +
        static_cast<double>(arch_.num_arrays) * 2.0 *
            lib_.muxSelectPj(8);
    p.saf_pj_per_b_fetch = 2.0 * lib_.regAccessPj();

    EvalResult r = evaluateTraffic(arch_, lib_, p);
    r.workload = w.name;
    r.note = "dual-side speedup " + formatG6(1.0 / (da * db));
    return r;
}

std::vector<BreakdownEntry>
DssoAccel::areaBreakdown() const
{
    auto area = baseAreaBreakdown();
    // Rank-0 muxes per lane, rank-1 block selection per array, VFMU,
    // plus the output pruning/compression unit dual-side HSS needs.
    double saf = static_cast<double>(arch_.numMacs()) *
                 lib_.muxAreaUm2(4);
    saf += arch_.num_arrays * 2.0 * lib_.muxAreaUm2(8);
    const std::int64_t vfmu_bits = 2 * 8 * 4 * lib_.tech().word_bits;
    saf += arch_.num_arrays *
           (lib_.regArrayAreaUm2(vfmu_bits) + 2.0 * lib_.muxAreaUm2(4));
    saf += arch_.num_arrays * 64.0 * lib_.muxAreaUm2(4);
    area.push_back({"saf", saf});
    return area;
}

} // namespace highlight
