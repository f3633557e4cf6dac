/**
 * @file
 * Fidelity tests against the paper's own worked examples and the
 * published model statistics: the Fig 11 VFMU walkthrough (C1(2:3)
 * operand A, shift of 12 values) run on the simulated datapath, and
 * parameter-count checks for the three DNN layer tables against the
 * published model sizes.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "dnn/deit.hh"
#include "dnn/resnet50.hh"
#include "dnn/transformer.hh"
#include "microsim/simulator.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"

namespace highlight
{
namespace
{

TEST(Fig11, VfmuHandlesH1EqualThreeWithTwelveValueShifts)
{
    // Fig 11's scenario: operand A with C1(2:3) over 4-value rank-0
    // blocks. The VFMU must shift 12 values (three blocks) per
    // processing step, straddling the 16-word GLB rows, and the
    // results must stay exact.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 3)});
    Rng rng(11);
    const std::int64_t m = 2, k = 48, n = 4; // 48 = 4 groups of 12
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomDense(TensorShape({{"K", k}, {"N", n}}), rng);

    // MicrosimConfig::glb_row_words is Fig 11's row width, 16.
    const auto r = HighlightSimulator().run(a, spec, b);
    EXPECT_LT(r.output.maxAbsDiff(referenceGemm(a, b)), 1e-4);
    // One shift of 12 per (group, column) step.
    EXPECT_EQ(r.stats.vfmu.shifts, r.stats.cycles);
    EXPECT_EQ(r.stats.vfmu.words_out, r.stats.cycles * 12);
    // 12-word shifts over 16-word rows: some steps are served from
    // the buffer without a fresh GLB fetch.
    EXPECT_GT(r.stats.vfmu.skipped_fetches, 0);
}

TEST(Fig11, SpeedupForH1ThreeIsThreeHalves)
{
    // C1(2:3) alone gives a 3/2 rank-1 speedup; combined with 2:4 at
    // rank 0 the total is 1/density = 3.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 3)});
    EXPECT_NEAR(1.0 / spec.density(), 3.0, 1e-12);
    Rng rng(12);
    const std::int64_t m = 1, k = 24, n = 3;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomDense(TensorShape({{"K", k}, {"N", n}}), rng);
    const auto r = HighlightSimulator().run(a, spec, b);
    EXPECT_NEAR(r.speedupVsDense(m, k, n), 3.0, 1e-9);
}

double
weightCount(const DnnModel &model)
{
    double weights = 0.0;
    for (const auto &l : model.layers) {
        // Dynamic attention GEMMs carry no weights.
        if (l.name.find("_qk") != std::string::npos ||
            l.name.find("_av") != std::string::npos)
            continue;
        weights += static_cast<double>(l.m) * static_cast<double>(l.k);
    }
    return weights;
}

TEST(ModelSizes, Resnet50MatchesPublished)
{
    // ResNet50: 25.5M parameters (conv + fc; BN excluded).
    const double w = weightCount(resnet50Model());
    EXPECT_GT(w, 23e6);
    EXPECT_LT(w, 27e6);
}

TEST(ModelSizes, TransformerBigMatchesPublished)
{
    // Transformer-Big: ~213M parameters in total; the GEMM weights
    // (attention + FFN, excluding embeddings) are ~176M.
    const double w = weightCount(transformerBigModel());
    EXPECT_GT(w, 150e6);
    EXPECT_LT(w, 200e6);
}

TEST(ModelSizes, DeitSmallMatchesPublished)
{
    // DeiT-small: ~22M parameters.
    const double w = weightCount(deitSmallModel());
    EXPECT_GT(w, 20e6);
    EXPECT_LT(w, 24e6);
}

TEST(ModelSizes, ActivationSparsityMatchesPaperClaims)
{
    // Sec 2.2.3: ResNet50 ~60% sparse activations; Transformer-Big
    // less than 10% average sparsity.
    EXPECT_NEAR(resnet50Model().activation_density, 0.4, 0.05);
    EXPECT_GT(transformerBigModel().activation_density, 0.9);
}

} // namespace
} // namespace highlight
