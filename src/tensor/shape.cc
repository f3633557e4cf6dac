#include "tensor/shape.hh"

#include <sstream>

#include "common/logging.hh"

namespace highlight
{

TensorShape::TensorShape(std::vector<Dim> dims) : dims_(std::move(dims))
{
    for (const auto &d : dims_) {
        if (d.extent <= 0)
            fatal(msgOf("TensorShape: dimension ", d.name,
                        " has non-positive extent ", d.extent));
        if (d.name.empty())
            fatal("TensorShape: dimension with empty name");
    }
    for (std::size_t i = 0; i < dims_.size(); ++i) {
        for (std::size_t j = i + 1; j < dims_.size(); ++j) {
            if (dims_[i].name == dims_[j].name)
                fatal(msgOf("TensorShape: duplicate dimension name ",
                            dims_[i].name));
        }
    }
}

std::int64_t
TensorShape::numel() const
{
    std::int64_t n = 1;
    for (const auto &d : dims_)
        n *= d.extent;
    return n;
}

const Dim &
TensorShape::dim(std::size_t i) const
{
    if (i >= dims_.size())
        panic(msgOf("TensorShape::dim: index ", i, " out of range ",
                    dims_.size()));
    return dims_[i];
}

std::vector<std::int64_t>
TensorShape::strides() const
{
    std::vector<std::int64_t> s(dims_.size(), 1);
    for (std::size_t i = dims_.size(); i-- > 1;)
        s[i - 1] = s[i] * dims_[i].extent;
    return s;
}

std::int64_t
TensorShape::flatIndex(const std::vector<std::int64_t> &index) const
{
    if (index.size() != dims_.size())
        panic(msgOf("flatIndex: index rank ", index.size(),
                    " != shape rank ", dims_.size()));
    const auto s = strides();
    std::int64_t flat = 0;
    for (std::size_t i = 0; i < index.size(); ++i) {
        if (index[i] < 0 || index[i] >= dims_[i].extent)
            panic(msgOf("flatIndex: coordinate ", index[i],
                        " out of bounds for dim ", dims_[i].name, " (extent ",
                        dims_[i].extent, ")"));
        flat += index[i] * s[i];
    }
    return flat;
}

std::string
TensorShape::str() const
{
    std::ostringstream oss;
    oss << "[";
    for (std::size_t i = 0; i < dims_.size(); ++i) {
        if (i)
            oss << ", ";
        oss << dims_[i].name << ":" << dims_[i].extent;
    }
    oss << "]";
    return oss.str();
}

} // namespace highlight
