/**
 * @file
 * Dense row-major tensor of float values.
 *
 * This is the uncompressed representation every other subsystem starts
 * from: sparsifiers zero out entries in place, compression formats pack
 * the nonzeros, and the micro-simulator checks its outputs against dense
 * reference GEMMs computed on these.
 */

#ifndef HIGHLIGHT_TENSOR_DENSE_TENSOR_HH
#define HIGHLIGHT_TENSOR_DENSE_TENSOR_HH

#include <cstdint>
#include <vector>

#include "tensor/shape.hh"

namespace highlight
{

/**
 * A dense tensor with named dimensions and row-major float storage.
 *
 * Zero values are semantically "empty" for all sparsity purposes: the
 * compression formats treat exact 0.0f as absent.
 */
class DenseTensor
{
  public:
    DenseTensor() = default;

    /** Construct a zero-initialized tensor with the given shape. */
    explicit DenseTensor(TensorShape shape);

    /** Construct from shape and explicit row-major data. */
    DenseTensor(TensorShape shape, std::vector<float> data);

    /** Convenience: 2-D matrix with dims named "M" (rows), "K" (cols). */
    static DenseTensor matrix(std::int64_t rows, std::int64_t cols);

    const TensorShape &shape() const { return shape_; }
    std::int64_t numel() const { return shape_.numel(); }

    /** Element access by multi-index (outermost dimension first). */
    float at(const std::vector<std::int64_t> &index) const;
    void set(const std::vector<std::int64_t> &index, float value);

    /** Element access by flat row-major offset. */
    float atFlat(std::int64_t flat) const;
    void setFlat(std::int64_t flat, float value);

    /**
     * Unchecked flat access for hot loops (the micro-simulator's
     * output accumulation): the caller guarantees 0 <= flat < numel().
     */
    float atFlatUnchecked(std::int64_t flat) const
    {
        return data_[static_cast<std::size_t>(flat)];
    }
    void setFlatUnchecked(std::int64_t flat, float value)
    {
        data_[static_cast<std::size_t>(flat)] = value;
    }

    /** 2-D convenience accessors (valid only for rank-2 tensors). */
    float at2(std::int64_t row, std::int64_t col) const;
    void set2(std::int64_t row, std::int64_t col, float value);

    /** Raw row-major storage. */
    const std::vector<float> &data() const { return data_; }
    std::vector<float> &data() { return data_; }

    /** Number of exact-zero entries. */
    std::int64_t countZeros() const;

    /** Number of nonzero entries. */
    std::int64_t countNonzeros() const;

    /** Fraction of zero entries (paper: "sparsity"). */
    double sparsity() const;

    /** Fraction of nonzero entries (paper: density = 1 - sparsity). */
    double density() const;

    /** True if shapes match and all elements are exactly equal. */
    bool equals(const DenseTensor &other) const;

    /** Max |a - b| over all elements; fatal if shapes differ. */
    double maxAbsDiff(const DenseTensor &other) const;

  private:
    TensorShape shape_;
    std::vector<float> data_;
};

/**
 * Reference dense GEMM: C = A * B with A of shape (M x K) and B of shape
 * (K x N). Used as ground truth by the micro-simulator tests.
 */
DenseTensor referenceGemm(const DenseTensor &a, const DenseTensor &b);

} // namespace highlight

#endif // HIGHLIGHT_TENSOR_DENSE_TENSOR_HH
