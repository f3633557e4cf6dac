/**
 * @file
 * Unit tests for the accelerator models: Table 3 support semantics,
 * per-design speedup behaviour, the operand-swap harness, and the
 * paper's headline orderings on the synthetic suite.
 */

#include <gtest/gtest.h>

#include "accel/dsso.hh"
#include "accel/dstc.hh"
#include "accel/harness.hh"
#include "accel/highlight.hh"
#include "accel/s2ta.hh"
#include "accel/stc.hh"
#include "accel/tc.hh"
#include "common/logging.hh"
#include "common/stats.hh"

namespace highlight
{
namespace
{

GemmWorkload
makeWorkload(OperandSparsity a, OperandSparsity b,
             std::int64_t dim = 1024)
{
    GemmWorkload w;
    w.name = "test";
    w.m = w.k = w.n = dim;
    w.a = a;
    w.b = b;
    return w;
}

HssSpec
hssForSparsity(double sparsity)
{
    return chooseSpecForDensity(highlightWeightSupport(),
                                1.0 - sparsity);
}

TEST(Tc, SupportsEverythingExploitsNothing)
{
    const TcLike tc;
    const auto dense = makeWorkload(OperandSparsity::dense(),
                                    OperandSparsity::dense());
    const auto sparse =
        makeWorkload(OperandSparsity::structured(hssForSparsity(0.75)),
                     OperandSparsity::unstructured(0.25));
    EXPECT_TRUE(tc.supports(dense));
    EXPECT_TRUE(tc.supports(sparse));
    // Same cycles and (essentially) same energy either way.
    const auto rd = tc.evaluate(dense);
    const auto rs = tc.evaluate(sparse);
    EXPECT_DOUBLE_EQ(rd.cycles, rs.cycles);
    EXPECT_NEAR(rd.totalEnergyPj(), rs.totalEnergyPj(),
                rd.totalEnergyPj() * 1e-9);
}

TEST(Tc, DenseCyclesAreIdeal)
{
    const TcLike tc;
    const auto r = tc.evaluate(makeWorkload(OperandSparsity::dense(),
                                            OperandSparsity::dense()));
    EXPECT_DOUBLE_EQ(r.cycles, 1024.0 * 1024.0);
}

TEST(Stc, SupportMatrix)
{
    const StcLike stc;
    EXPECT_TRUE(stc.supports(makeWorkload(OperandSparsity::dense(),
                                          OperandSparsity::dense())));
    // 2:4 A: supported.
    EXPECT_TRUE(stc.supports(makeWorkload(
        OperandSparsity::structured(HssSpec({GhPattern(2, 4)})),
        OperandSparsity::dense())));
    // Unstructured A: not expressible.
    EXPECT_FALSE(stc.supports(makeWorkload(
        OperandSparsity::unstructured(0.5), OperandSparsity::dense())));
    // 4:8 A violates the 4-window limit.
    EXPECT_FALSE(stc.supports(makeWorkload(
        OperandSparsity::structured(HssSpec({GhPattern(4, 8)})),
        OperandSparsity::dense())));
    // Sparse B is processed (as dense values).
    EXPECT_TRUE(stc.supports(makeWorkload(
        OperandSparsity::dense(), OperandSparsity::unstructured(0.5))));
}

TEST(Stc, SpeedupCappedAtTwo)
{
    const StcLike stc;
    const auto r50 = stc.evaluate(makeWorkload(
        OperandSparsity::structured(HssSpec({GhPattern(2, 4)})),
        OperandSparsity::dense()));
    const auto r75 = stc.evaluate(makeWorkload(
        OperandSparsity::structured(HssSpec({GhPattern(1, 4)})),
        OperandSparsity::dense()));
    const auto rd = stc.evaluate(makeWorkload(
        OperandSparsity::dense(), OperandSparsity::dense()));
    // Both sparse degrees get exactly 2x, never more (Sec 2.2.3).
    EXPECT_DOUBLE_EQ(rd.cycles / r50.cycles, 2.0);
    EXPECT_DOUBLE_EQ(rd.cycles / r75.cycles, 2.0);
}

TEST(Stc, TwoRankHssWithConforming4WindowRuns)
{
    // A 4:8 x 2:4 HSS operand still satisfies "<= 2 per aligned
    // 4-window", so STC can execute it (at its fixed 2x).
    const StcLike stc;
    const auto w = makeWorkload(
        OperandSparsity::structured(hssForSparsity(0.75)),
        OperandSparsity::dense());
    ASSERT_TRUE(stc.supports(w));
    const auto r = stc.evaluate(w);
    EXPECT_DOUBLE_EQ(r.cycles, 1024.0 * 1024.0 / 2.0);
}

TEST(S2ta, RequiresStructuredSparseA)
{
    const S2taLike s2ta;
    // Dense A: unsupported ("incapability to process purely dense
    // layers", Sec 7.3).
    EXPECT_FALSE(s2ta.supports(makeWorkload(
        OperandSparsity::dense(), OperandSparsity::dense())));
    // Unstructured A: unsupported.
    EXPECT_FALSE(s2ta.supports(makeWorkload(
        OperandSparsity::unstructured(0.25),
        OperandSparsity::dense())));
    // 50% structured A: supported.
    EXPECT_TRUE(s2ta.supports(makeWorkload(
        OperandSparsity::structured(HssSpec({GhPattern(4, 8)})),
        OperandSparsity::unstructured(0.5))));
}

TEST(S2ta, QuantizesBToG8Grid)
{
    EXPECT_EQ(S2taLike::quantizeG8(1.0), 8);
    EXPECT_EQ(S2taLike::quantizeG8(0.75), 6);
    EXPECT_EQ(S2taLike::quantizeG8(0.5), 4);
    EXPECT_EQ(S2taLike::quantizeG8(0.26), 3);
    EXPECT_EQ(S2taLike::quantizeG8(0.01), 1);
}

TEST(S2ta, SpeedupComesFromAOnlyAndCapsAtTwo)
{
    // A-side skipping gives the provisioned 2x; B sparsity becomes
    // energy (gating + compression), not time — turning it into time
    // needs the VFMU-style variable fetch HighLight introduces
    // (Sec 6.3.2) or DSSO's alternating dense ranks (Sec 7.5).
    const S2taLike s2ta;
    const auto r = s2ta.evaluate(makeWorkload(
        OperandSparsity::structured(HssSpec({GhPattern(4, 8)})),
        OperandSparsity::unstructured(0.5)));
    ASSERT_TRUE(r.supported);
    EXPECT_DOUBLE_EQ(r.cycles, 1024.0 * 1024.0 * 0.5);
    // Sparser A does not speed S2TA up further (lane cap at G=4)...
    const auto r75 = s2ta.evaluate(makeWorkload(
        OperandSparsity::structured(
            HssSpec({GhPattern(2, 4), GhPattern(4, 8)})),
        OperandSparsity::unstructured(0.5)));
    EXPECT_DOUBLE_EQ(r75.cycles, r.cycles);
    // ...and sparser B saves energy but not cycles.
    const auto r_b75 = s2ta.evaluate(makeWorkload(
        OperandSparsity::structured(HssSpec({GhPattern(4, 8)})),
        OperandSparsity::unstructured(0.25)));
    EXPECT_DOUBLE_EQ(r_b75.cycles, r.cycles);
    EXPECT_LT(r_b75.totalEnergyPj(), r.totalEnergyPj());
}

TEST(Dstc, SupportsEverything)
{
    const DstcLike dstc;
    EXPECT_TRUE(dstc.supports(makeWorkload(OperandSparsity::dense(),
                                           OperandSparsity::dense())));
    EXPECT_TRUE(dstc.supports(
        makeWorkload(OperandSparsity::unstructured(0.2),
                     OperandSparsity::unstructured(0.9))));
}

TEST(Dstc, DualSideTimeScalingWithImperfectBalance)
{
    const DstcLike dstc;
    const auto r = dstc.evaluate(
        makeWorkload(OperandSparsity::unstructured(0.5),
                     OperandSparsity::unstructured(0.5)));
    const double ideal = 1024.0 * 1024.0 * 0.25;
    // Faster than dense but slower than the perfect-balance ideal.
    EXPECT_LT(r.cycles, 1024.0 * 1024.0);
    EXPECT_GT(r.cycles, ideal);
}

TEST(Dstc, WorseThanDenseOnDenseWorkloads)
{
    // The Fig 13/15 takeaway: DSTC's outer-product accumulation tax
    // makes it worse than TC on dense workloads.
    const TcLike tc;
    const DstcLike dstc;
    const auto w = makeWorkload(OperandSparsity::dense(),
                                OperandSparsity::dense());
    EXPECT_GT(dstc.evaluate(w).edp(), tc.evaluate(w).edp());
}

TEST(Highlight, SupportMatrix)
{
    const HighLightAccel hl;
    EXPECT_TRUE(hl.supports(makeWorkload(OperandSparsity::dense(),
                                         OperandSparsity::dense())));
    EXPECT_TRUE(hl.supports(
        makeWorkload(OperandSparsity::structured(hssForSparsity(0.75)),
                     OperandSparsity::unstructured(0.4))));
    // Unstructured A: not expressible.
    EXPECT_FALSE(hl.supports(makeWorkload(
        OperandSparsity::unstructured(0.5), OperandSparsity::dense())));
    // Out-of-range HSS (H1 = 16): unsupported.
    EXPECT_FALSE(hl.supports(makeWorkload(
        OperandSparsity::structured(
            HssSpec({GhPattern(2, 4), GhPattern(4, 16)})),
        OperandSparsity::dense())));
}

class HighlightSpeedup : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(HighlightSpeedup, SpeedupIsExactlyInverseDensity)
{
    const auto degrees = enumerateDegrees(highlightWeightSupport());
    const HssSpec spec = degrees[GetParam()].spec;
    const HighLightAccel hl;
    const auto dense = hl.evaluate(makeWorkload(
        OperandSparsity::dense(), OperandSparsity::dense()));
    const auto sparse = hl.evaluate(makeWorkload(
        OperandSparsity::structured(spec), OperandSparsity::dense()));
    ASSERT_TRUE(sparse.supported);
    EXPECT_NEAR(dense.cycles / sparse.cycles, 1.0 / spec.density(),
                0.01)
        << spec.str();
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, HighlightSpeedup,
                         ::testing::Range<std::size_t>(0, 12));

TEST(Highlight, BSparsitySavesEnergyNotTime)
{
    const HighLightAccel hl;
    const auto spec = hssForSparsity(0.5);
    const auto rb_dense = hl.evaluate(makeWorkload(
        OperandSparsity::structured(spec), OperandSparsity::dense()));
    const auto rb_sparse = hl.evaluate(
        makeWorkload(OperandSparsity::structured(spec),
                     OperandSparsity::unstructured(0.4)));
    EXPECT_DOUBLE_EQ(rb_dense.cycles, rb_sparse.cycles);
    EXPECT_LT(rb_sparse.totalEnergyPj(), rb_dense.totalEnergyPj());
}

TEST(Highlight, LowSparsityTaxOnDense)
{
    // Goal 2 (Sec 1): near-parity with the dense accelerator on dense
    // workloads.
    const TcLike tc;
    const HighLightAccel hl;
    const auto w = makeWorkload(OperandSparsity::dense(),
                                OperandSparsity::dense());
    const double ratio = hl.evaluate(w).edp() / tc.evaluate(w).edp();
    EXPECT_LT(ratio, 1.15);
    EXPECT_GT(ratio, 0.85);
}

TEST(Highlight, SafAreaShareIsSmall)
{
    // Fig 16(b): SAFs are a small single-digit share of the design.
    const HighLightAccel hl;
    const auto area = hl.areaBreakdown();
    const double share = breakdownShare(area, "saf");
    EXPECT_GT(share, 0.005);
    EXPECT_LT(share, 0.10);
}

TEST(Dsso, SupportMatrix)
{
    const DssoAccel dsso;
    // A: C1(dense)->C0(2:4); B: C1(2:4)->C0(dense).
    const auto a = OperandSparsity::structured(
        HssSpec({GhPattern(2, 4)}));
    const auto b = OperandSparsity::structured(
        HssSpec({GhPattern(4, 4), GhPattern(2, 4)}));
    EXPECT_TRUE(dsso.supports(makeWorkload(a, b)));
    // B sparse at rank 0 is not allowed (alternating dense ranks).
    EXPECT_FALSE(dsso.supports(makeWorkload(
        a, OperandSparsity::structured(HssSpec({GhPattern(2, 4)})))));
    // Unstructured operands are not expressible.
    EXPECT_FALSE(dsso.supports(
        makeWorkload(a, OperandSparsity::unstructured(0.5))));
}

TEST(Dsso, Fig17TwiceHighlightSpeedAtCommonDegree)
{
    // Fig 17: for B with C1(2:4) (density 0.5), DSSO's dual-side
    // skipping is 2x faster than HighLight's gating-only B support.
    const DssoAccel dsso;
    const HighLightAccel hl;
    const auto a = OperandSparsity::structured(
        HssSpec({GhPattern(2, 4)}));
    const auto b_structured = OperandSparsity::structured(
        HssSpec({GhPattern(4, 4), GhPattern(2, 4)}));
    const auto r_dsso = dsso.evaluate(makeWorkload(a, b_structured));
    // HighLight sees the same B as unstructured 50%.
    const auto r_hl = hl.evaluate(makeWorkload(
        OperandSparsity::structured(hssForSparsity(0.5)),
        OperandSparsity::unstructured(0.5)));
    ASSERT_TRUE(r_dsso.supported);
    ASSERT_TRUE(r_hl.supported);
    EXPECT_NEAR(r_hl.cycles / r_dsso.cycles, 2.0, 0.05);
}

TEST(Harness, SwapRescuesStcWhenBIsStructured)
{
    // Sec 7.1.1's example: STC benefits from sparse A, so the harness
    // swaps when B is the structured side.
    const StcLike stc;
    GemmWorkload w = makeWorkload(
        OperandSparsity::dense(),
        OperandSparsity::structured(HssSpec({GhPattern(2, 4)})));
    const auto best = evaluateBest(stc, w);
    ASSERT_TRUE(best.supported);
    EXPECT_NE(best.note.find("swapped"), std::string::npos);
    EXPECT_DOUBLE_EQ(best.cycles, 1024.0 * 1024.0 / 2.0);
}

TEST(Harness, UnsupportedBothWaysReported)
{
    const S2taLike s2ta;
    const auto w = makeWorkload(OperandSparsity::dense(),
                                OperandSparsity::dense());
    const auto r = evaluateBest(s2ta, w);
    EXPECT_FALSE(r.supported);
    EXPECT_FALSE(r.note.empty());
}

TEST(Harness, SuiteEvaluationShapes)
{
    const auto designs = standardDesigns();
    std::vector<const Accelerator *> ptrs;
    for (const auto &d : designs)
        ptrs.push_back(d.get());
    const auto suite = syntheticSuite();
    ASSERT_EQ(suite.size(), 12u); // 3 A-degrees x 4 B-degrees
    const auto results = evaluateSuite(ptrs, suite);
    ASSERT_EQ(results.size(), 5u);
    for (const auto &sr : results)
        EXPECT_EQ(sr.results.size(), 12u);
}

TEST(Headline, HighlightBestEdpAcrossSyntheticSuite)
{
    // Fig 13: "HighLight always achieves the best EDP ... for all
    // evaluated sparsity degrees."
    const TcLike tc;
    const StcLike stc;
    const DstcLike dstc;
    const HighLightAccel hl;
    for (const auto &w : syntheticSuite()) {
        const auto r_hl = evaluateBest(hl, w);
        ASSERT_TRUE(r_hl.supported) << w.str();
        for (const Accelerator *other :
             std::initializer_list<const Accelerator *>{&tc, &stc,
                                                        &dstc}) {
            const auto r = evaluateBest(*other, w);
            if (r.supported) {
                // Best or within 5%: dense-A cells against DSTC's
                // dual-side latency advantage land at parity in our
                // substitute component models (FIDELITY.md).
                EXPECT_LE(r_hl.edp(), r.edp() * 1.05)
                    << w.str() << " vs " << other->name();
            }
        }
    }
}

TEST(Headline, GeomeanEdpVsDenseInPaperBand)
{
    // Abstract: geomean 6.4x (up to 20.4x) lower EDP than dense across
    // the diverse-sparsity suite. Our substitute component models
    // should land in the same ballpark (factor-of-2 band).
    const TcLike tc;
    const HighLightAccel hl;
    std::vector<double> ratios;
    for (const auto &w : syntheticSuite()) {
        const auto r_tc = evaluateBest(tc, w);
        const auto r_hl = evaluateBest(hl, w);
        ratios.push_back(r_tc.edp() / r_hl.edp());
    }
    const double gm = geomean(ratios);
    EXPECT_GT(gm, 3.0);
    EXPECT_LT(gm, 13.0);
    EXPECT_GT(maxOf(ratios), 10.0);
}

TEST(Table3, SupportedPatternStrings)
{
    EXPECT_EQ(TcLike().supportedPatternsA(), "dense");
    EXPECT_EQ(StcLike().supportedPatternsA(), "dense; C0({G<=2}:4)");
    EXPECT_EQ(S2taLike().supportedPatternsA(), "C0({G<=4}:8)");
    EXPECT_EQ(DstcLike().supportedPatternsA(),
              "dense; unstructured sparse");
    EXPECT_EQ(HighLightAccel().supportedPatternsA(),
              "C1(4:{4<=H<=8})->C0(2:{2<=H<=4})");
    EXPECT_EQ(HighLightAccel().supportedPatternsB(),
              "dense; unstructured sparse");
}

TEST(Notes, PinnedBytesPerDesign)
{
    // The notes land in every --json dump, so their bytes are part of
    // the output. These are the strings the stream-built notes printed.
    EXPECT_EQ(DstcLike()
                  .evaluate(makeWorkload(OperandSparsity::unstructured(0.5),
                                         OperandSparsity::unstructured(0.35)))
                  .note,
              "utilization 0.48036");
    EXPECT_EQ(HighLightAccel()
                  .evaluate(makeWorkload(
                      OperandSparsity::structured(
                          HssSpec({GhPattern(2, 3), GhPattern(4, 7)})),
                      OperandSparsity::unstructured(0.5)))
                  .note,
              "A as C1(4:7)->C0(2:3), speedup 2.625");
    EXPECT_EQ(S2taLike()
                  .evaluate(makeWorkload(
                      OperandSparsity::structured(HssSpec({GhPattern(2, 4)})),
                      OperandSparsity::unstructured(0.3)))
                  .note,
              "A as 4:8, B as 3:8");
    EXPECT_EQ(DssoAccel()
                  .evaluate(makeWorkload(
                      OperandSparsity::structured(HssSpec({GhPattern(2, 3)})),
                      OperandSparsity::structured(
                          HssSpec({GhPattern(4, 4), GhPattern(2, 7)}))))
                  .note,
              "dual-side speedup 5.25");
}

} // namespace
} // namespace highlight
