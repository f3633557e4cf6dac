/**
 * @file
 * Unit tests for the tensor subsystem: shapes, dense tensors and
 * generators.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "tensor/dense_tensor.hh"
#include "tensor/generator.hh"
#include "tensor/shape.hh"

namespace highlight
{
namespace
{

TensorShape
crsShape()
{
    return TensorShape({{"C", 4}, {"R", 3}, {"S", 3}});
}

TEST(Shape, BasicProperties)
{
    const auto s = crsShape();
    EXPECT_EQ(s.rank(), 3u);
    EXPECT_EQ(s.numel(), 36);
    EXPECT_EQ(s.dim(0).name, "C");
    EXPECT_EQ(s.indexOf("S"), 2u);
    EXPECT_TRUE(s.has("R"));
    EXPECT_FALSE(s.has("Z"));
}

TEST(Shape, StridesAreRowMajor)
{
    const auto strides = crsShape().strides();
    ASSERT_EQ(strides.size(), 3u);
    EXPECT_EQ(strides[0], 9);
    EXPECT_EQ(strides[1], 3);
    EXPECT_EQ(strides[2], 1);
}

TEST(Shape, FlattenUnflattenRoundTrip)
{
    const auto s = crsShape();
    for (std::int64_t flat = 0; flat < s.numel(); ++flat) {
        const auto idx = s.unflatten(flat);
        EXPECT_EQ(s.flatIndex(idx), flat);
    }
}

TEST(Shape, RejectsBadConstruction)
{
    EXPECT_THROW(TensorShape({{"C", 0}}), FatalError);
    EXPECT_THROW(TensorShape({{"C", 2}, {"C", 3}}), FatalError);
    EXPECT_THROW(TensorShape({{"", 2}}), FatalError);
}

TEST(Shape, OutOfBoundsIndexPanics)
{
    const auto s = crsShape();
    EXPECT_THROW(s.flatIndex({4, 0, 0}), PanicError);
    EXPECT_THROW(s.unflatten(36), PanicError);
}

TEST(Shape, StrPrintsNamesAndExtents)
{
    EXPECT_EQ(crsShape().str(), "[C:4, R:3, S:3]");
}

TEST(DenseTensor, ZeroInitialized)
{
    DenseTensor t(crsShape());
    EXPECT_EQ(t.countZeros(), 36);
    EXPECT_DOUBLE_EQ(t.sparsity(), 1.0);
    EXPECT_DOUBLE_EQ(t.density(), 0.0);
}

TEST(DenseTensor, SetGetRoundTrip)
{
    DenseTensor t(crsShape());
    t.set({1, 2, 0}, 5.0f);
    EXPECT_FLOAT_EQ(t.at({1, 2, 0}), 5.0f);
    EXPECT_EQ(t.countNonzeros(), 1);
}

TEST(DenseTensor, Matrix2dAccessors)
{
    auto m = DenseTensor::matrix(2, 3);
    m.set2(1, 2, 7.0f);
    EXPECT_FLOAT_EQ(m.at2(1, 2), 7.0f);
    EXPECT_FLOAT_EQ(m.atFlat(5), 7.0f);
}

TEST(DenseTensor, DataSizeValidation)
{
    EXPECT_THROW(
        DenseTensor(TensorShape({{"M", 2}, {"K", 2}}), {1.0f}),
        FatalError);
}

TEST(DenseTensor, SparsityCounts)
{
    DenseTensor m(TensorShape({{"M", 1}, {"K", 4}}),
                  {1.0f, 0.0f, 2.0f, 0.0f});
    EXPECT_DOUBLE_EQ(m.sparsity(), 0.5);
    EXPECT_DOUBLE_EQ(m.density(), 0.5);
}

TEST(DenseTensor, MaxAbsDiffAndEquals)
{
    DenseTensor a(TensorShape({{"M", 1}, {"K", 2}}), {1.0f, 2.0f});
    DenseTensor b(TensorShape({{"M", 1}, {"K", 2}}), {1.0f, 2.5f});
    EXPECT_TRUE(a.equals(a));
    EXPECT_FALSE(a.equals(b));
    EXPECT_NEAR(a.maxAbsDiff(b), 0.5, 1e-7);
}

TEST(DenseTensor, ReferenceGemmHandComputed)
{
    // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
    DenseTensor a(TensorShape({{"M", 2}, {"K", 2}}),
                  {1.0f, 2.0f, 3.0f, 4.0f});
    DenseTensor b(TensorShape({{"K", 2}, {"N", 2}}),
                  {5.0f, 6.0f, 7.0f, 8.0f});
    const auto c = referenceGemm(a, b);
    EXPECT_FLOAT_EQ(c.at2(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c.at2(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c.at2(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c.at2(1, 1), 50.0f);
}

TEST(DenseTensor, ReferenceGemmRejectsMismatch)
{
    auto a = DenseTensor::matrix(2, 3);
    auto b = DenseTensor::matrix(4, 2);
    EXPECT_THROW(referenceGemm(a, b), FatalError);
}

TEST(Generator, RandomDenseHasNoZeros)
{
    Rng rng;
    const auto t = randomDense(TensorShape({{"M", 16}, {"K", 16}}), rng);
    EXPECT_EQ(t.countZeros(), 0);
}

TEST(Generator, UnstructuredHitsExactSparsity)
{
    Rng rng;
    const auto t = randomUnstructured(
        TensorShape({{"M", 32}, {"K", 32}}), 0.75, rng);
    EXPECT_EQ(t.countZeros(), 768); // 0.75 * 1024
}

TEST(Generator, UnstructuredRejectsBadSparsity)
{
    Rng rng;
    EXPECT_THROW(
        randomUnstructured(TensorShape({{"M", 2}}), 1.5, rng),
        FatalError);
}

} // namespace
} // namespace highlight
