/**
 * @file
 * Unit tests for the accuracy-loss models (the Fig 15 y-axis
 * substitution; see FIDELITY.md, Substitutions).
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "accuracy/accuracy_model.hh"
#include "common/logging.hh"

namespace highlight
{
namespace
{

const DnnName kModels[] = {DnnName::ResNet50, DnnName::TransformerBig,
                           DnnName::DeitSmall};
const PruningApproach kPruning[] = {PruningApproach::Unstructured,
                                    PruningApproach::OneRankGh,
                                    PruningApproach::Hss,
                                    PruningApproach::Channel};

TEST(Accuracy, DenseHasZeroLoss)
{
    for (DnnName m : kModels) {
        EXPECT_DOUBLE_EQ(
            AccuracyModel::loss(m, PruningApproach::Dense, 0.0), 0.0);
        EXPECT_DOUBLE_EQ(
            AccuracyModel::loss(m, PruningApproach::Dense, 0.9), 0.0);
    }
}

TEST(Accuracy, ZeroSparsityHasZeroLoss)
{
    for (DnnName m : kModels)
        for (PruningApproach a : kPruning)
            EXPECT_DOUBLE_EQ(AccuracyModel::loss(m, a, 0.0), 0.0);
}

TEST(Accuracy, MonotoneInSparsity)
{
    for (DnnName m : kModels) {
        for (PruningApproach a : kPruning) {
            double prev = 0.0;
            for (double s = 0.1; s < 0.95; s += 0.05) {
                const double loss = AccuracyModel::loss(m, a, s);
                EXPECT_GE(loss, prev)
                    << static_cast<int>(m) << "/" << approachStr(a)
                    << " at sparsity " << s;
                prev = loss;
            }
        }
    }
}

TEST(Accuracy, FlexibilityOrderingAtEqualSparsity)
{
    // More placement freedom -> lower loss: unstructured <= HSS <=
    // one-rank G:H <= channel (Sec 4.2's motivation for HSS).
    for (DnnName m : kModels) {
        for (double s : {0.5, 0.625, 0.75}) {
            const double unstructured = AccuracyModel::loss(
                m, PruningApproach::Unstructured, s);
            const double hss =
                AccuracyModel::loss(m, PruningApproach::Hss, s);
            const double one_rank =
                AccuracyModel::loss(m, PruningApproach::OneRankGh, s);
            const double channel =
                AccuracyModel::loss(m, PruningApproach::Channel, s);
            const int model = static_cast<int>(m);
            EXPECT_LE(unstructured, hss) << model << " " << s;
            EXPECT_LE(hss, one_rank) << model << " " << s;
            EXPECT_LT(one_rank, channel) << model << " " << s;
        }
    }
}

TEST(Accuracy, CompactModelDegradesFaster)
{
    // Sec 1: compact models "cannot be pruned as aggressively".
    for (double s : {0.5, 0.75}) {
        EXPECT_GT(AccuracyModel::loss(DnnName::DeitSmall,
                                      PruningApproach::Hss, s),
                  AccuracyModel::loss(DnnName::ResNet50,
                                      PruningApproach::Hss, s));
    }
}

TEST(Accuracy, Stc24RecoveryMatchesLiterature)
{
    // [32]: 2:4 pruning recovers to within ~0.1-0.2% on ResNet50.
    const double loss = AccuracyModel::loss(
        DnnName::ResNet50, PruningApproach::OneRankGh, 0.5);
    EXPECT_GT(loss, 0.0);
    EXPECT_LE(loss, 0.3);
}

TEST(Accuracy, RejectsOutOfRangeSparsity)
{
    EXPECT_THROW(AccuracyModel::loss(DnnName::ResNet50,
                                     PruningApproach::Hss, 1.0),
                 FatalError);
    EXPECT_THROW(AccuracyModel::loss(DnnName::ResNet50,
                                     PruningApproach::Hss, -0.1),
                 FatalError);
}

TEST(Accuracy, RejectsNanSparsity)
{
    // Past the range check, std::max(0.0, NaN) would make the loss 0.
    try {
        AccuracyModel::loss(DnnName::ResNet50, PruningApproach::Hss,
                            std::numeric_limits<double>::quiet_NaN());
        ADD_FAILURE() << "a NaN sparsity was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("sparsity nan outside"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Accuracy, NameStrings)
{
    EXPECT_EQ(approachStr(PruningApproach::Hss), "HSS");
    EXPECT_EQ(approachStr(PruningApproach::OneRankGh), "one-rank G:H");
}

TEST(Accuracy, InterpolationBetweenAnchors)
{
    // Between the 0.5 and 0.6 ResNet50 unstructured anchors (0.05 and
    // 0.1), the midpoint must interpolate linearly.
    const double mid = AccuracyModel::loss(
        DnnName::ResNet50, PruningApproach::Unstructured, 0.55);
    EXPECT_NEAR(mid, 0.075, 1e-9);
}

} // namespace
} // namespace highlight
