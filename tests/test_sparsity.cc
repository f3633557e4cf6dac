/**
 * @file
 * Unit and property tests for the sparsity subsystem: G:H patterns,
 * fibertree-based specs (Table 2), HSS degree algebra (Fig 1, Fig 6),
 * sparsifiers (Sec 4.2), and conformance checking.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "common/random.hh"
#include "sparsity/conformance.hh"
#include "sparsity/gh_pattern.hh"
#include "sparsity/hss.hh"
#include "sparsity/sparsify.hh"
#include "sparsity/spec.hh"
#include "tensor/generator.hh"

namespace highlight
{
namespace
{

TEST(GhPattern, DensityAndStr)
{
    const GhPattern p(2, 4);
    EXPECT_DOUBLE_EQ(p.density(), 0.5);
    EXPECT_EQ(p.str(), "2:4");
    EXPECT_FALSE(p.isDense());
    EXPECT_TRUE(GhPattern(4, 4).isDense());
}

TEST(GhPattern, RejectsInvalid)
{
    EXPECT_THROW(GhPattern(0, 4), FatalError);
    EXPECT_THROW(GhPattern(5, 4), FatalError);
    EXPECT_THROW(GhPattern(1, 0), FatalError);
}

TEST(RankRule, Strings)
{
    EXPECT_EQ(RankRule::dense().str(), "");
    EXPECT_EQ(RankRule::unconstrained().str(), "Unconstrained");
    EXPECT_EQ(RankRule::gh(GhPattern(2, 4)).str(), "2:4");
    EXPECT_EQ(RankRule::ghSet({GhPattern(2, 2), GhPattern(2, 3),
                               GhPattern(2, 4)})
                  .str(),
              "2:{2<=H<=4}");
}

TEST(RankRule, SingleRequiresExactlyOne)
{
    EXPECT_THROW(RankRule::dense().single(), FatalError);
    EXPECT_THROW(
        RankRule::ghSet({GhPattern(1, 2), GhPattern(2, 2)}).single(),
        FatalError);
    EXPECT_EQ(RankRule::gh(GhPattern(2, 4)).single().str(), "2:4");
}

TEST(Spec, Table2StringsMatchPaper)
{
    EXPECT_EQ(channelStructuredSpec().str(),
              "C(Unconstrained)->R->S");
    EXPECT_EQ(stc24Spec().str(), "RS->C1->C0(2:4)");
    EXPECT_EQ(exampleTwoRankHssSpec().str(),
              "RS->C2->C1(3:4)->C0(2:4)");
}

TEST(Spec, Table2HasSevenRows)
{
    const auto rows = table2Specs();
    EXPECT_EQ(rows.size(), 7u);
    // First row: unstructured over the flattened CRS rank.
    EXPECT_EQ(rows[0].spec.str(), "CRS(Unconstrained)");
    // Last row: the example two-rank HSS.
    EXPECT_EQ(rows.back().spec.str(), exampleTwoRankHssSpec().str());
}

TEST(Spec, StructuredDensityMultiplies)
{
    // Fig 5's example: 1 - 3/4 * 2/4 = 0.625 sparsity.
    EXPECT_NEAR(exampleTwoRankHssSpec().structuredDensity(), 0.375,
                1e-12);
    EXPECT_THROW(channelStructuredSpec().structuredDensity(),
                 FatalError);
}

TEST(Hss, DensityIsProductOfFractions)
{
    const HssSpec spec({GhPattern(2, 4), GhPattern(3, 4)});
    EXPECT_NEAR(spec.density(), 0.375, 1e-12);
    EXPECT_NEAR(spec.sparsity(), 0.625, 1e-12);
}

TEST(Hss, BlockSpans)
{
    const HssSpec spec({GhPattern(2, 4), GhPattern(4, 8)});
    EXPECT_EQ(spec.blockSpan(0), 1);
    EXPECT_EQ(spec.blockSpan(1), 4);
    EXPECT_EQ(spec.totalSpan(), 32);
}

TEST(Hss, StrNotation)
{
    const HssSpec spec({GhPattern(2, 4), GhPattern(3, 4)});
    EXPECT_EQ(spec.str(), "C1(3:4)->C0(2:4)");
}

TEST(Hss, DenseSpec)
{
    const HssSpec dense({GhPattern(4, 4), GhPattern(2, 2)});
    EXPECT_TRUE(dense.isDense());
    EXPECT_DOUBLE_EQ(dense.density(), 1.0);
    EXPECT_FALSE(HssSpec({GhPattern(2, 4), GhPattern(2, 2)}).isDense());
}

TEST(Hss, Fig1ComposingDensitySets)
{
    // Fig 1: composing two sets of density degrees by multiplying the
    // fractions yields the product set.
    const auto composed =
        composeDensitySets({1.0, 0.5}, {1.0, 0.75, 0.5});
    // Products: {1, .75, .5, .5, .375, .25} -> 5 distinct.
    ASSERT_EQ(composed.size(), 5u);
    EXPECT_DOUBLE_EQ(composed.front(), 1.0);
    EXPECT_DOUBLE_EQ(composed.back(), 0.25);
}

TEST(Hss, Fig6DesignSHas15Degrees)
{
    const auto degrees = enumerateDegrees(fig6DesignS());
    EXPECT_EQ(degrees.size(), 15u);
    EXPECT_DOUBLE_EQ(degrees.front().density, 1.0);   // 0% sparsity
    EXPECT_DOUBLE_EQ(degrees.back().density, 0.125);  // 87.5%
}

TEST(Hss, Fig6DesignSsHas15Degrees)
{
    // The core Fig 6 claim: the two-rank design SS spans the same 15
    // degrees over 0..87.5% with much smaller per-rank Hmax.
    const auto degrees = enumerateDegrees(fig6DesignSS());
    EXPECT_EQ(degrees.size(), 15u);
    EXPECT_DOUBLE_EQ(degrees.front().density, 1.0);
    EXPECT_DOUBLE_EQ(degrees.back().density, 0.125);
}

TEST(Hss, HighlightSupports12Degrees)
{
    const auto degrees = enumerateDegrees(highlightWeightSupport());
    EXPECT_EQ(degrees.size(), 12u);
    EXPECT_DOUBLE_EQ(degrees.front().density, 1.0);
    EXPECT_DOUBLE_EQ(degrees.back().density, 0.25); // up to 75% sparse
}

TEST(Hss, DegreesAreSortedDescendingAndUnique)
{
    const auto degrees = enumerateDegrees(highlightWeightSupport());
    for (std::size_t i = 1; i < degrees.size(); ++i)
        EXPECT_GT(degrees[i - 1].density, degrees[i].density);
}

TEST(Hss, ChooseSpecForDensityPicksSparsestAboveTarget)
{
    const auto spec =
        chooseSpecForDensity(highlightWeightSupport(), 0.5);
    EXPECT_NEAR(spec.density(), 0.5, 1e-12);
    const auto spec2 =
        chooseSpecForDensity(highlightWeightSupport(), 0.26);
    EXPECT_NEAR(spec2.density(), 2.0 / 7.0, 1e-12);
    // A target sparser than the sparsest supported degree falls back
    // to that sparsest degree (the hardware never over-prunes).
    const auto spec3 =
        chooseSpecForDensity(highlightWeightSupport(), 0.1);
    EXPECT_NEAR(spec3.density(), 0.25, 1e-12);
    // Only if even the *densest* supported degree is below the target
    // does selection fail: a 2:4-only design cannot stay 90% dense.
    EXPECT_THROW(chooseSpecForDensity({{2, 4, 4}}, 0.9), FatalError);
}

TEST(Hss, WorstCaseWindowOccupancy)
{
    // 2:4 -> at most 2 nonzeros in an aligned window of 4.
    EXPECT_EQ(worstCaseWindowOccupancy(HssSpec({GhPattern(2, 4)}), 4),
              2);
    // 1:4 -> at most 1.
    EXPECT_EQ(worstCaseWindowOccupancy(HssSpec({GhPattern(1, 4)}), 4),
              1);
    // 4:8 -> a window of 4 can be fully dense.
    EXPECT_EQ(worstCaseWindowOccupancy(HssSpec({GhPattern(4, 8)}), 4),
              4);
    // 2:8 -> both nonzeros can land in one 4-window.
    EXPECT_EQ(worstCaseWindowOccupancy(HssSpec({GhPattern(2, 8)}), 4),
              2);
    // Two-rank 4:8 x 2:4 in an 8-window: two adjacent blocks may both
    // be kept, each holding 2.
    EXPECT_EQ(worstCaseWindowOccupancy(
                  HssSpec({GhPattern(2, 4), GhPattern(4, 8)}), 8),
              4);
    // Full-span window: exactly G1*G0 nonzeros.
    EXPECT_EQ(worstCaseWindowOccupancy(
                  HssSpec({GhPattern(2, 4), GhPattern(4, 8)}), 32),
              8);
}

TEST(Sparsify, ScaledL2NormIsAverageMagnitude)
{
    const float vals[] = {3.0f, -4.0f, 0.0f, 1.0f};
    EXPECT_NEAR(scaledL2Norm(vals, 4), 2.0, 1e-12);
}

TEST(Sparsify, UnstructuredExactCountAndMagnitudeOrder)
{
    DenseTensor m(TensorShape({{"M", 1}, {"K", 8}}),
                  {8.0f, -1.0f, 7.0f, 2.0f, -6.0f, 3.0f, 5.0f, -4.0f});
    const auto s = unstructuredSparsify(m, 0.5);
    EXPECT_EQ(s.countZeros(), 4);
    // The four smallest magnitudes (1,2,3,4) must be the zeros.
    EXPECT_FLOAT_EQ(s.at2(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(s.at2(0, 3), 0.0f);
    EXPECT_FLOAT_EQ(s.at2(0, 5), 0.0f);
    EXPECT_FLOAT_EQ(s.at2(0, 7), 0.0f);
    EXPECT_FLOAT_EQ(s.at2(0, 0), 8.0f);
}

TEST(Sparsify, UnstructuredRejectsNanSparsity)
{
    // Past the range check, llround(NaN) would ask nth_element for
    // 2^63 zeros, past the end of the tensor.
    const DenseTensor m(TensorShape({{"M", 2}, {"K", 8}}));
    try {
        unstructuredSparsify(m, std::numeric_limits<double>::quiet_NaN());
        ADD_FAILURE() << "a NaN sparsity was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("sparsity nan outside"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Sparsify, Rank0KeepsLargestMagnitudes)
{
    DenseTensor m(TensorShape({{"M", 1}, {"K", 4}}),
                  {1.0f, -9.0f, 5.0f, 2.0f});
    const auto s = hssSparsify(m, HssSpec({GhPattern(2, 4)}));
    EXPECT_FLOAT_EQ(s.at2(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(s.at2(0, 1), -9.0f);
    EXPECT_FLOAT_EQ(s.at2(0, 2), 5.0f);
    EXPECT_FLOAT_EQ(s.at2(0, 3), 0.0f);
}

TEST(Sparsify, Rank1PrunesSmallestBlocks)
{
    // Two groups of 2 blocks (h0 = 2); keep 1 block per group by
    // scaled L2 norm.
    DenseTensor m(TensorShape({{"M", 1}, {"K", 8}}),
                  {1.0f, 1.0f, 9.0f, 9.0f, 7.0f, 7.0f, 2.0f, 2.0f});
    const auto s = hssSparsify(
        m, HssSpec({GhPattern(2, 2), GhPattern(1, 2)}));
    // Group 0: block {9,9} survives; group 1: block {7,7} survives.
    EXPECT_FLOAT_EQ(s.at2(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(s.at2(0, 2), 9.0f);
    EXPECT_FLOAT_EQ(s.at2(0, 4), 7.0f);
    EXPECT_FLOAT_EQ(s.at2(0, 6), 0.0f);
}

TEST(Sparsify, RequiresDivisibleColumns)
{
    DenseTensor m(TensorShape({{"M", 2}, {"K", 10}}));
    EXPECT_THROW(hssSparsify(m, HssSpec({GhPattern(2, 4)})),
                 FatalError);
}

TEST(Conformance, DetectsViolations)
{
    DenseTensor m(TensorShape({{"M", 1}, {"K", 4}}),
                  {1.0f, 2.0f, 3.0f, 0.0f});
    const auto report = checkHss(m, HssSpec({GhPattern(2, 4)}));
    EXPECT_FALSE(report.conforms);
    EXPECT_EQ(report.totalViolations(), 1);
    EXPECT_FALSE(report.first_violation.empty());
}

TEST(Conformance, AcceptsUnderOccupancy)
{
    // "At most G" semantics: fewer nonzeros than G always conform.
    DenseTensor m(TensorShape({{"M", 1}, {"K", 4}}),
                  {1.0f, 0.0f, 0.0f, 0.0f});
    EXPECT_TRUE(conformsTo(m, HssSpec({GhPattern(2, 4)})));
}

/**
 * Property suite: for every supported HighLight degree, sparsifying a
 * random dense matrix yields (a) a conforming tensor, (b) the exact
 * structured density, (c) per-block magnitude preservation.
 */
class HssSparsifyProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(HssSparsifyProperty, SparsifiedTensorConformsWithExactDensity)
{
    const auto degrees = enumerateDegrees(highlightWeightSupport());
    const HssSpec spec = degrees[GetParam()].spec;

    Rng rng(GetParam() + 7);
    const std::int64_t cols = spec.totalSpan() * 4;
    const auto dense = randomDense(
        TensorShape({{"M", 6}, {"K", cols}}), rng);
    const auto sparse = hssSparsify(dense, spec);

    EXPECT_TRUE(conformsTo(sparse, spec))
        << checkHss(sparse, spec).first_violation;
    // A dense input has no zeros, so the sparsifier prunes to exactly
    // the structured density.
    EXPECT_NEAR(sparse.density(), spec.density(), 1e-12)
        << "spec " << spec.str();
    // Survivors are a subset of the original values.
    for (std::size_t i = 0; i < sparse.data().size(); ++i) {
        if (sparse.data()[i] != 0.0f) {
            EXPECT_FLOAT_EQ(sparse.data()[i], dense.data()[i]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllHighlightDegrees, HssSparsifyProperty,
                         ::testing::Range<std::size_t>(0, 12));

TEST(SparsifyProperty, Rank0MagnitudePreservation)
{
    // Within every H0 block, every kept magnitude >= every pruned one.
    Rng rng(3);
    const HssSpec spec({GhPattern(2, 4)});
    const auto dense =
        randomDense(TensorShape({{"M", 4}, {"K", 32}}), rng);
    const auto sparse = hssSparsify(dense, spec);
    for (std::int64_t r = 0; r < 4; ++r) {
        for (std::int64_t b = 0; b < 8; ++b) {
            float min_kept = 1e30f, max_pruned = 0.0f;
            for (int i = 0; i < 4; ++i) {
                const float orig = std::abs(dense.at2(r, b * 4 + i));
                const bool kept = sparse.at2(r, b * 4 + i) != 0.0f;
                if (kept)
                    min_kept = std::min(min_kept, orig);
                else
                    max_pruned = std::max(max_pruned, orig);
            }
            EXPECT_GE(min_kept, max_pruned);
        }
    }
}

TEST(SparsifyProperty, IdempotentOnConformingInput)
{
    Rng rng(11);
    const HssSpec spec({GhPattern(2, 4), GhPattern(4, 8)});
    const auto dense =
        randomDense(TensorShape({{"M", 3}, {"K", 64}}), rng);
    const auto once = hssSparsify(dense, spec);
    const auto twice = hssSparsify(once, spec);
    EXPECT_TRUE(once.equals(twice));
}

} // namespace
} // namespace highlight
