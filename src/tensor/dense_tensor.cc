#include "tensor/dense_tensor.hh"

#include <cmath>

#include "common/logging.hh"

namespace highlight
{

DenseTensor::DenseTensor(TensorShape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_.numel()), 0.0f)
{
}

DenseTensor::DenseTensor(TensorShape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    if (static_cast<std::int64_t>(data_.size()) != shape_.numel())
        fatal(msgOf("DenseTensor: data size ", data_.size(),
                    " != shape numel ", shape_.numel()));
}

float
DenseTensor::at(const std::vector<std::int64_t> &index) const
{
    return data_[static_cast<std::size_t>(shape_.flatIndex(index))];
}

void
DenseTensor::set(const std::vector<std::int64_t> &index, float value)
{
    data_[static_cast<std::size_t>(shape_.flatIndex(index))] = value;
}

float
DenseTensor::at2(std::int64_t row, std::int64_t col) const
{
    if (shape_.rank() != 2)
        panic("at2: tensor is not rank-2");
    return data_[static_cast<std::size_t>(
        row * shape_.dim(1).extent + col)];
}

void
DenseTensor::set2(std::int64_t row, std::int64_t col, float value)
{
    if (shape_.rank() != 2)
        panic("set2: tensor is not rank-2");
    data_[static_cast<std::size_t>(row * shape_.dim(1).extent + col)] =
        value;
}

std::int64_t
DenseTensor::countZeros() const
{
    std::int64_t zeros = 0;
    for (float v : data_) {
        if (v == 0.0f)
            ++zeros;
    }
    return zeros;
}

std::int64_t
DenseTensor::countNonzeros() const
{
    return numel() - countZeros();
}

double
DenseTensor::sparsity() const
{
    if (numel() == 0)
        return 0.0;
    return static_cast<double>(countZeros()) /
           static_cast<double>(numel());
}

double
DenseTensor::density() const
{
    return 1.0 - sparsity();
}

bool
DenseTensor::equals(const DenseTensor &other) const
{
    return shape_ == other.shape_ && data_ == other.data_;
}

double
DenseTensor::maxAbsDiff(const DenseTensor &other) const
{
    if (!(shape_ == other.shape_))
        fatal("maxAbsDiff: shape mismatch");
    double worst = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        const double d = std::abs(static_cast<double>(data_[i]) -
                                  static_cast<double>(other.data_[i]));
        worst = std::max(worst, d);
    }
    return worst;
}

DenseTensor
referenceGemm(const DenseTensor &a, const DenseTensor &b)
{
    if (a.shape().rank() != 2 || b.shape().rank() != 2)
        fatal("referenceGemm: operands must be rank-2");
    const std::int64_t m = a.shape().dim(0).extent;
    const std::int64_t k = a.shape().dim(1).extent;
    const std::int64_t k2 = b.shape().dim(0).extent;
    const std::int64_t n = b.shape().dim(1).extent;
    if (k != k2)
        fatal(msgOf("referenceGemm: inner dims differ: ", k, " vs ", k2));

    DenseTensor c(TensorShape({{"M", m}, {"N", n}}));
    // Accumulate in double to keep the reference exact enough for
    // comparisons against the simulator's double accumulators.
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t kk = 0; kk < k; ++kk) {
                acc += static_cast<double>(a.at2(i, kk)) *
                       static_cast<double>(b.at2(kk, j));
            }
            c.set2(i, j, static_cast<float>(acc));
        }
    }
    return c;
}

} // namespace highlight
