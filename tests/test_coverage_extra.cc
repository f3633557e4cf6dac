/**
 * @file
 * Additional coverage: edge cases and secondary behaviours across
 * subsystems that the per-module suites don't exercise — engine knob
 * interactions, format corner cases, design areas and notes, and the
 * explorer/evaluator error paths.
 */

#include <gtest/gtest.h>

#include "accel/dstc.hh"
#include "accel/harness.hh"
#include "accel/highlight.hh"
#include "accel/tc.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/evaluator.hh"
#include "core/explorer.hh"
#include "dnn/resnet50.hh"
#include "dnn/transformer.hh"
#include "format/hierarchical_cp.hh"
#include "format/operand_b.hh"
#include "microsim/simulator.hh"
#include "model/engine.hh"
#include "sparsity/conformance.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"

namespace highlight
{
namespace
{

// --- engine knob interactions ---

TrafficParams
baseParams()
{
    TrafficParams p;
    p.m = p.k = p.n = 512;
    return p;
}

TEST(EngineExtra, PsumFractionScalesRfEnergy)
{
    const ComponentLibrary lib;
    auto full = baseParams();
    auto gated = baseParams();
    gated.psum_fraction = 0.25;
    const auto rf = [](const EvalResult &r) {
        return breakdownShare(r.energy_pj, "rf") * r.totalEnergyPj();
    };
    EXPECT_LT(rf(evaluateTraffic(tcArch(), lib, gated)),
              rf(evaluateTraffic(tcArch(), lib, full)));
}

TEST(EngineExtra, AStreamPerStepAddsGlbEnergy)
{
    const ComponentLibrary lib;
    auto resident = baseParams();
    auto streaming = baseParams();
    streaming.a_stream_per_step = true;
    const auto glb = [](const EvalResult &r) {
        return breakdownShare(r.energy_pj, "glb") * r.totalEnergyPj();
    };
    EXPECT_GT(glb(evaluateTraffic(s2taArch(), lib, streaming)),
              glb(evaluateTraffic(s2taArch(), lib, resident)));
}

TEST(EngineExtra, OutputStationaryIncreasesBPasses)
{
    const ComponentLibrary lib;
    auto a_stat = baseParams();
    a_stat.m = a_stat.k = a_stat.n = 1024;
    auto out_stat = a_stat;
    out_stat.output_stationary = true;
    const auto dram = [](const EvalResult &r) {
        return breakdownShare(r.energy_pj, "dram") * r.totalEnergyPj();
    };
    EXPECT_GT(dram(evaluateTraffic(dstcArch(), lib, out_stat)),
              dram(evaluateTraffic(dstcArch(), lib, a_stat)));
}

TEST(EngineExtra, AccumAccessPjOverridesRfCost)
{
    const ComponentLibrary lib;
    auto cheap = baseParams();
    cheap.accum = AccumStyle::OuterProduct;
    auto costly = cheap;
    costly.accum_access_pj = 10.0 * lib.rfAccessPj(2.0);
    const auto rf = [](const EvalResult &r) {
        return breakdownShare(r.energy_pj, "rf") * r.totalEnergyPj();
    };
    EXPECT_GT(rf(evaluateTraffic(dstcArch(), lib, costly)),
              rf(evaluateTraffic(dstcArch(), lib, cheap)));
}

TEST(EngineExtra, MetadataPartitionRepurposedWhenUnused)
{
    // With no metadata in flight, a 256+64KB design tiles like a
    // 320KB one: identical DRAM traffic to TC.
    const ComponentLibrary lib;
    const auto p = baseParams();
    const auto r_tc = evaluateTraffic(tcArch(), lib, p);
    const auto r_stc = evaluateTraffic(stcArch(), lib, p);
    const auto dram = [](const EvalResult &r) {
        return breakdownShare(r.energy_pj, "dram") * r.totalEnergyPj();
    };
    EXPECT_DOUBLE_EQ(dram(r_tc), dram(r_stc));
}

// --- format corner cases ---

TEST(FormatExtra, OperandBWithUnitH1)
{
    // h1 = 1: every block is its own set.
    Rng rng(1);
    const auto t = randomUnstructured(TensorShape({{"K", 32}}), 0.5,
                                      rng);
    const OperandBStream b(t.data().data(), 32, 4, 1);
    EXPECT_EQ(b.setCounts().size(), 8u);
    const auto back = b.decompress();
    for (std::int64_t i = 0; i < 32; ++i)
        EXPECT_FLOAT_EQ(back[static_cast<std::size_t>(i)],
                        t.atFlat(i));
}

TEST(FormatExtra, SingleRankCpRoundTrip)
{
    Rng rng(2);
    const HssSpec spec({GhPattern(2, 8)});
    const auto sparse = hssSparsify(
        randomDense(TensorShape({{"M", 4}, {"K", 64}}), rng), spec);
    const HierarchicalCpMatrix cp(sparse, spec);
    EXPECT_TRUE(cp.decompress().equals(sparse));
    EXPECT_EQ(cp.dataWords(), 4 * 16); // 64 * 2/8 per row
}

TEST(FormatExtra, ThreeRankCpRoundTrip)
{
    // The CP format generalizes to N ranks even though the simulated
    // datapath stops at two.
    Rng rng(3);
    const HssSpec spec(
        {GhPattern(1, 2), GhPattern(2, 4), GhPattern(3, 4)});
    const auto sparse = hssSparsify(
        randomDense(TensorShape({{"M", 3}, {"K", spec.totalSpan() * 2}}),
                    rng),
        spec);
    EXPECT_TRUE(conformsTo(sparse, spec));
    const HierarchicalCpMatrix cp(sparse, spec);
    EXPECT_TRUE(cp.decompress().equals(sparse));
    EXPECT_NEAR(sparse.density(), spec.density(), 1e-12);
}

TEST(FormatExtra, ThreeRankSparsifyDensity)
{
    const HssSpec spec(
        {GhPattern(2, 4), GhPattern(3, 4), GhPattern(1, 2)});
    EXPECT_NEAR(spec.density(), 0.5 * 0.75 * 0.5, 1e-12);
    EXPECT_EQ(spec.totalSpan(), 32);
}

TEST(TensorExtra, HssSparsifyColumnsConforms)
{
    Rng rng(6);
    const HssSpec spec({GhPattern(4, 4), GhPattern(2, 4)});
    const auto b = hssSparsifyColumns(
        randomDense(TensorShape({{"K", 32}, {"N", 5}}), rng), spec);
    // Transposed view conforms along rows.
    DenseTensor bt(TensorShape({{"N", 5}, {"K", 32}}));
    for (std::int64_t k = 0; k < 32; ++k)
        for (std::int64_t n = 0; n < 5; ++n)
            bt.set2(n, k, b.at2(k, n));
    EXPECT_TRUE(conformsTo(bt, spec));
    EXPECT_NEAR(b.density(), 0.5, 1e-12);
}

// --- design areas & notes ---

TEST(HarnessExtra, AllDesignAreasPositiveWithExpectedComponents)
{
    const Evaluator ev;
    for (const Accelerator *d : ev.designs()) {
        const auto area = d->areaBreakdown();
        EXPECT_GT(breakdownTotal(area), 0.0) << d->name();
        EXPECT_GT(breakdownShare(area, "mac"), 0.0) << d->name();
        EXPECT_GT(breakdownShare(area, "glb"), 0.0) << d->name();
        if (d->name() != "TC")
            EXPECT_GT(breakdownShare(area, "saf"), 0.0) << d->name();
    }
}

TEST(HarnessExtra, DstcNoteReportsUtilization)
{
    const DstcLike dstc;
    GemmWorkload w;
    w.name = "util";
    w.m = w.k = w.n = 512;
    w.a = OperandSparsity::unstructured(0.5);
    w.b = OperandSparsity::unstructured(0.5);
    const auto r = dstc.evaluate(w);
    EXPECT_NE(r.note.find("utilization"), std::string::npos);
}

TEST(HarnessExtra, SwapIsNeutralForSymmetricDesign)
{
    // TC is operand-symmetric: swapping changes nothing material.
    const TcLike tc;
    GemmWorkload w;
    w.name = "sym";
    w.m = 256;
    w.k = 512;
    w.n = 256;
    w.a = OperandSparsity::dense();
    w.b = OperandSparsity::dense();
    const auto direct = tc.evaluate(w);
    const auto swapped = tc.evaluate(w.swapped());
    EXPECT_DOUBLE_EQ(direct.cycles, swapped.cycles);
}

// --- explorer & evaluator error/parameter paths ---

TEST(ExplorerExtra, AnalyzeRejectsEmptyConfig)
{
    const DesignSpaceExplorer ex;
    HssDesignConfig config;
    config.name = "empty";
    EXPECT_THROW(ex.analyze(config), FatalError);
}

TEST(ExplorerExtra, HighlightConfigDegreesMatchTable3)
{
    const DesignSpaceExplorer ex;
    const auto r = ex.analyze(
        {"HighLight", highlightWeightSupport(), 128, 4});
    EXPECT_EQ(r.degrees.size(), 12u);
    EXPECT_EQ(r.hmax_per_rank, (std::vector<int>{4, 8}));
}

TEST(EvaluatorExtra, OneRankSpecUsesDesignNativeBlock)
{
    const Evaluator ev;
    const auto model = resnet50Model();
    // S2TA gets G:8 patterns.
    DnnScenario s2ta{"S2TA", PruningApproach::OneRankGh, 0.75};
    const auto suite = ev.buildDnnWorkloads(model, s2ta);
    EXPECT_EQ(suite[0].a.hss.rank(0).h, 8);
    EXPECT_EQ(suite[0].a.hss.rank(0).g, 2);
}

TEST(EvaluatorExtra, TransformerSeqLenScalesWork)
{
    const auto short_seq = transformerBigModel(64);
    const auto long_seq = transformerBigModel(256);
    EXPECT_GT(long_seq.totalMacs(), short_seq.totalMacs() * 3.0);
}

TEST(EvaluatorExtra, DnnEdpUsesGigahertzClock)
{
    DnnEvalResult r;
    r.total_cycles = 1e9; // one second at 1 GHz
    r.total_energy_pj = 1e12; // one joule
    EXPECT_NEAR(r.edp(), 1.0, 1e-9);
}

// --- micro-simulator limits ---

TEST(MicrosimExtra, ThreeRankSpecRejected)
{
    const HssSpec spec(
        {GhPattern(2, 4), GhPattern(2, 4), GhPattern(1, 2)});
    auto a = DenseTensor::matrix(1, 32);
    auto b = DenseTensor::matrix(32, 2);
    EXPECT_THROW(HighlightSimulator().run(a, spec, b), FatalError);
}

TEST(MicrosimExtra, HighlightAccelFitsDenseRank1)
{
    // A one-rank 2:4 spec is within the two-rank SAF's support.
    EXPECT_TRUE(HighLightAccel::fitsWeightSupport(
        HssSpec({GhPattern(2, 4)})));
    EXPECT_FALSE(HighLightAccel::fitsWeightSupport(
        HssSpec({GhPattern(3, 4)})));
}

// --- verbosity toggles (smoke) ---

TEST(LoggingExtra, VerbosityToggleDoesNotThrow)
{
    setVerbose(false);
    warn("suppressed");
    inform("suppressed");
    setVerbose(true);
    SUCCEED();
}

} // namespace
} // namespace highlight
