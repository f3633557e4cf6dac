/**
 * @file
 * Extending the library: implement a new accelerator model.
 *
 * This example builds a hypothetical "HighLight-3R" — a three-rank HSS
 * design with C2(2:{2,4}) -> C1(2:{2..4}) -> C0(2:{2..4}) weight
 * support — by subclassing Accelerator, reusing the shared traffic
 * engine and component library so its numbers are directly comparable
 * with the built-in designs. It then races the new design against
 * two-rank HighLight on very sparse workloads where the extra rank's
 * degrees pay off.
 */

#include <iostream>

#include "accel/highlight.hh"
#include "common/table.hh"
#include "energy/mux_model.hh"
#include "format/hierarchical_cp.hh"
#include "model/density.hh"

namespace
{

using namespace highlight;

/** A three-rank HSS accelerator built on the library's engine. */
class HighLight3R : public Accelerator
{
  public:
    HighLight3R() : Accelerator(makeArch()) {}

    std::string
    supportedPatternsA() const override
    {
        return "C2(2:{2<=H<=4})->C1(2:{2<=H<=4})->C0(2:{2<=H<=4})";
    }
    std::string
    supportedPatternsB() const override
    {
        return "dense; unstructured sparse";
    }

    static std::vector<RankSupport>
    weightSupport()
    {
        return {{2, 2, 4}, {2, 2, 4}, {2, 2, 4}};
    }

    bool
    supports(const GemmWorkload &w) const override
    {
        if (w.a.kind == PatternKind::Unstructured)
            return false;
        if (w.a.kind == PatternKind::Hss) {
            const auto sup = weightSupport();
            if (w.a.hss.numRanks() > sup.size())
                return false;
            for (std::size_t n = 0; n < w.a.hss.numRanks(); ++n) {
                const GhPattern &p = w.a.hss.rank(n);
                if (!p.isDense() &&
                    (p.g != sup[n].g || p.h < sup[n].h_min ||
                     p.h > sup[n].h_max))
                    return false;
            }
        }
        return true;
    }

    EvalResult
    evaluate(const GemmWorkload &w) const override
    {
        if (!supports(w))
            return unsupportedResult(w, "A outside three-rank support");

        const double da =
            w.a.kind == PatternKind::Hss ? w.a.hss.density() : 1.0;
        TrafficParams p;
        p.m = w.m;
        p.k = w.k;
        p.n = w.n;
        if (da < 1.0) {
            p.a_stored_density = da;
            // 2-bit offsets at each of three ranks, amortized by G=2.
            p.a_meta_bits_per_word = 2.0 + 1.0 + 0.5;
            p.time_fraction = da; // skipping at all three ranks
        }
        if (w.b.density < 0.75) {
            p.b_stored_density = w.b.density;
            p.b_meta_bits_per_word = bitsFor(4) + 2.0;
            p.b_fetch_fraction = w.b.density;
        }
        p.effectual_mac_fraction = w.a.density * w.b.density;
        p.gate_ineffectual = true;
        p.psum_fraction =
            blockNonEmptyProb(w.b.density, arch_.spatial_k);
        // Three mux stages, each small (Hmax = 4 everywhere).
        p.mux_pj_per_step =
            arch_.numMacs() * lib_.muxSelectPj(4) +
            2.0 * arch_.num_arrays * 2.0 * lib_.muxSelectPj(4);
        p.saf_pj_per_b_fetch = 2.0 * lib_.regAccessPj();

        EvalResult r = evaluateTraffic(arch_, lib_, p);
        r.workload = w.name;
        return r;
    }

    std::vector<BreakdownEntry>
    areaBreakdown() const override
    {
        auto area = baseAreaBreakdown();
        const MuxModel mux = buildHssMuxModel(
            {2, 2, 2}, {4, 4, 4}, arch_.pes_per_array,
            arch_.num_arrays);
        area.push_back({"saf", mux.areaUm2(lib_)});
        return area;
    }

  private:
    static ArchSpec
    makeArch()
    {
        ArchSpec a = highlightArch();
        a.name = "HighLight-3R";
        return a;
    }
};

} // namespace

int
main()
{
    const HighLight3R hl3;
    const HighLightAccel hl2;

    // The three-rank design reaches degrees the two-rank one cannot:
    // its sparsest degree is (2/4)^3 = 12.5% density (87.5% sparsity)
    // vs HighLight's 25%.
    const auto degrees3 = enumerateDegrees(HighLight3R::weightSupport());
    std::cout << "HighLight-3R supports " << degrees3.size()
              << " degrees down to "
              << TextTable::fmt(
                     100.0 * (1.0 - degrees3.back().density), 1)
              << "% sparsity (two-rank HighLight: 12 degrees to "
                 "75%)\n\n";

    TextTable t("Two-rank vs three-rank HSS on very sparse weights "
                "(1024^3 GEMM, B 50% sparse; EDP in J*s)");
    t.setHeader({"A sparsity", "HighLight (2-rank)",
                 "HighLight-3R (3-rank)"});
    for (double target : {0.5, 0.25, 0.125}) {
        GemmWorkload w;
        w.name = "custom";
        w.m = w.k = w.n = 1024;
        w.b = OperandSparsity::unstructured(0.5);

        std::string cell2 = "unsupported degree";
        {
            const auto ds = enumerateDegrees(highlightWeightSupport());
            if (ds.back().density <= target + 1e-9) {
                w.a = OperandSparsity::structured(chooseSpecForDensity(
                    highlightWeightSupport(), target));
                cell2 = TextTable::fmt(hl2.evaluate(w).edp() * 1e6, 3) +
                        "e-6";
            }
        }
        w.a = OperandSparsity::structured(
            chooseSpecForDensity(HighLight3R::weightSupport(), target));
        const std::string cell3 =
            TextTable::fmt(hl3.evaluate(w).edp() * 1e6, 3) + "e-6";
        t.addRow({TextTable::fmt(100.0 * (1.0 - target), 1) + "%",
                  cell2, cell3});
    }
    t.print(std::cout);

    std::cout << "\nThe subclass reuses the shared engine and "
                 "component library, so its\nresults slot directly "
                 "into the evaluation harness next to the built-in\n"
                 "designs.\n";
    return 0;
}
