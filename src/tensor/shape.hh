/**
 * @file
 * Tensor shapes with named dimensions.
 *
 * The fibertree-based sparsity specification (paper Sec 3) talks about
 * ranks by dimension name (C, R, S, ...), so shapes carry names along
 * with extents. Names are single identifiers; transformed ranks use the
 * paper's convention of appending digits ("C1", "C0") or concatenating
 * ("RS").
 */

#ifndef HIGHLIGHT_TENSOR_SHAPE_HH
#define HIGHLIGHT_TENSOR_SHAPE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace highlight
{

/** One named dimension of a tensor. */
struct Dim
{
    std::string name;
    std::int64_t extent = 0;

    bool
    operator==(const Dim &other) const
    {
        return name == other.name && extent == other.extent;
    }
};

/**
 * An ordered list of named dimensions, outermost first.
 *
 * The order of dimensions is the rank order of the corresponding
 * fibertree: shape [C, R, S] puts C at the top rank and S at Rank0.
 */
class TensorShape
{
  public:
    TensorShape() = default;

    /** Construct from (name, extent) pairs, outermost dimension first. */
    explicit TensorShape(std::vector<Dim> dims);

    /** Number of dimensions. */
    std::size_t rank() const { return dims_.size(); }

    /** Total number of elements (product of extents). */
    std::int64_t numel() const;

    /** Dimension by position (0 = outermost). */
    const Dim &dim(std::size_t i) const;

    /** All dimensions, outermost first. */
    const std::vector<Dim> &dims() const { return dims_; }

    /**
     * Row-major strides (in elements) matching the dimension order:
     * the innermost (last) dimension has stride 1.
     */
    std::vector<std::int64_t> strides() const;

    /** Flat row-major offset of the given multi-index. */
    std::int64_t flatIndex(const std::vector<std::int64_t> &index) const;

    /** Human-readable form, e.g. "[C:4, R:3, S:3]". */
    std::string str() const;

    bool operator==(const TensorShape &other) const
    {
        return dims_ == other.dims_;
    }

  private:
    std::vector<Dim> dims_;
};

} // namespace highlight

#endif // HIGHLIGHT_TENSOR_SHAPE_HH
