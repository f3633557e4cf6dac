/**
 * @file
 * Integration tests across subsystems: the micro-simulator's measured
 * activity is cross-checked against the analytical model, the
 * sparsification pipeline feeds the compression formats and simulator
 * end to end, and the paper's headline relationships hold through the
 * whole stack.
 */

#include <gtest/gtest.h>

#include "accel/highlight.hh"
#include "accel/tc.hh"
#include "common/random.hh"
#include "core/evaluator.hh"
#include "dnn/layer.hh"
#include "dnn/resnet50.hh"
#include "dnn/transformer.hh"
#include "format/hierarchical_cp.hh"
#include "microsim/simulator.hh"
#include "sparsity/conformance.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"

namespace highlight
{
namespace
{

TEST(Integration, SimulatorSpeedupMatchesAnalyticalTimeFraction)
{
    // The analytical model says HighLight's time fraction equals the
    // HSS density; the micro-simulator must agree cycle-for-cycle.
    for (std::size_t i = 0; i < 12; ++i) {
        const auto degrees = enumerateDegrees(highlightWeightSupport());
        const HssSpec spec = degrees[i].spec;
        Rng rng(i);
        const std::int64_t m = 2, k = spec.totalSpan() * 2, n = 3;
        const auto a = hssSparsify(
            randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
        const auto b =
            randomDense(TensorShape({{"K", k}, {"N", n}}), rng);
        const auto sim = HighlightSimulator().run(a, spec, b);
        EXPECT_NEAR(sim.speedupVsDense(m, k, n), 1.0 / spec.density(),
                    1e-9)
            << spec.str();
    }
}

TEST(Integration, SimulatorMacCountMatchesAnalyticalEffectual)
{
    // Effectual MACs = nnz(A-aligned pairs with nonzero B). For dense
    // B this is exactly nnz(A) * N.
    const HssSpec spec({GhPattern(2, 4), GhPattern(4, 8)});
    Rng rng(2);
    const std::int64_t m = 2, k = 64, n = 4;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomDense(TensorShape({{"K", k}, {"N", n}}), rng);
    const auto sim = HighlightSimulator().run(a, spec, b);
    EXPECT_EQ(sim.stats.pe.mac_ops, a.countNonzeros() * n);
}

TEST(Integration, SparsifyCompressSimulatePipeline)
{
    // Full pipeline on a real conv layer: Toeplitz-expand, sparsify,
    // verify conformance, compress, simulate, compare.
    const ConvShape conv{"itest", 16, 6, 3, 3, 4, 4, 1};
    Rng rng(3);
    const auto input = randomDense(
        TensorShape({{"C", 16}, {"H", 6}, {"W", 6}}), rng);
    const auto weights = randomDense(
        TensorShape({{"M", 6}, {"C", 16}, {"R", 3}, {"S", 3}}), rng);

    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    // K = C*R*S = 144 is a multiple of the 16-wide span.
    const auto a = flattenWeights(weights);
    const auto b = toeplitzExpand(input, conv);

    const auto a_sparse = hssSparsify(a, spec);
    ASSERT_TRUE(conformsTo(a_sparse, spec));

    const HierarchicalCpMatrix cp(a_sparse, spec);
    EXPECT_TRUE(cp.decompress().equals(a_sparse));

    const auto sim = HighlightSimulator().run(a_sparse, spec, b);
    EXPECT_LT(sim.output.maxAbsDiff(referenceGemm(a_sparse, b)), 1e-3);
}

TEST(Integration, AnalyticalAndSimulatedBFetchScaleTogether)
{
    // Compressing a 75%-sparse B should cut simulated GLB-B words by
    // roughly the density factor, matching the analytical
    // b_fetch_fraction knob.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(4);
    const std::int64_t m = 1, k = 64, n = 32;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomUnstructured(
        TensorShape({{"K", k}, {"N", n}}), 0.75, rng);

    MicrosimConfig comp;
    comp.compress_b = true;
    const auto r_dense = HighlightSimulator().run(a, spec, b);
    const auto r_comp = HighlightSimulator(comp).run(a, spec, b);
    const double ratio =
        static_cast<double>(r_comp.stats.glb_b.words_read) /
        static_cast<double>(r_dense.stats.glb_b.words_read);
    EXPECT_LT(ratio, 0.45); // ~0.25 plus row-alignment slack
}

TEST(Integration, EvaluatorMatchesDirectAccelerator)
{
    // The Evaluator facade must not change results vs. calling the
    // accelerator directly (when no swap helps).
    const Evaluator ev;
    const HighLightAccel hl;
    GemmWorkload w;
    w.name = "direct";
    w.m = w.k = w.n = 512;
    w.a = OperandSparsity::structured(
        chooseSpecForDensity(highlightWeightSupport(), 0.5));
    w.b = OperandSparsity::unstructured(0.5);
    const auto r1 = ev.run("HighLight", w);
    const auto r2 = hl.evaluate(w);
    EXPECT_DOUBLE_EQ(r1.cycles, r2.cycles);
    EXPECT_DOUBLE_EQ(r1.totalEnergyPj(), r2.totalEnergyPj());
}

TEST(Integration, Fig2ShapeHolds)
{
    // Fig 2's qualitative result through the full stack:
    //  - on Transformer-Big (dense-ish activations), STC beats DSTC;
    //  - on ResNet50 (sparse acts, deep pruning), DSTC beats STC;
    //  - HighLight beats both on both networks.
    const Evaluator ev;

    const auto tb = transformerBigModel();
    const auto tb_stc = ev.runDnn(tb, DnnName::TransformerBig,
                                  {"STC", PruningApproach::OneRankGh,
                                   0.5});
    const auto tb_dstc = ev.runDnn(
        tb, DnnName::TransformerBig,
        {"DSTC", PruningApproach::Unstructured, 0.6});
    // HSS's degree flexibility lets HighLight prune to 62.5% at a
    // loss still within the paper's 0.5-point accuracy budget, where
    // STC is pinned to 2:4 — the flexibility half of Fig 2's message.
    const auto tb_hl = ev.runDnn(tb, DnnName::TransformerBig,
                                 {"HighLight", PruningApproach::Hss,
                                  0.625});
    ASSERT_TRUE(tb_stc.supported && tb_dstc.supported &&
                tb_hl.supported);
    EXPECT_LT(tb_stc.edp(), tb_dstc.edp());
    EXPECT_LT(tb_hl.edp(), tb_stc.edp());

    const auto rn = resnet50Model();
    const auto rn_stc = ev.runDnn(rn, DnnName::ResNet50,
                                  {"STC", PruningApproach::OneRankGh,
                                   0.5});
    const auto rn_dstc = ev.runDnn(
        rn, DnnName::ResNet50,
        {"DSTC", PruningApproach::Unstructured, 0.8});
    const auto rn_hl = ev.runDnn(rn, DnnName::ResNet50,
                                 {"HighLight", PruningApproach::Hss,
                                  0.75});
    ASSERT_TRUE(rn_stc.supported && rn_dstc.supported &&
                rn_hl.supported);
    EXPECT_LT(rn_dstc.edp(), rn_stc.edp());
    EXPECT_LT(rn_hl.edp(), rn_dstc.edp());
}

TEST(Integration, DensityConservationThroughStack)
{
    // The same density number must agree across spec algebra,
    // sparsified tensor, compressed size, and analytical time.
    const auto spec = chooseSpecForDensity(highlightWeightSupport(),
                                           1.0 / 3.0);
    Rng rng(6);
    const std::int64_t m = 4, k = spec.totalSpan() * 2;
    const auto dense =
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng);
    const auto sparse = hssSparsify(dense, spec);
    EXPECT_NEAR(sparse.density(), spec.density(), 1e-12);
    const HierarchicalCpMatrix cp(sparse, spec);
    EXPECT_EQ(cp.dataWords(),
              static_cast<std::int64_t>(spec.density() * m * k));
}

} // namespace
} // namespace highlight
