#include "sparsity/sparsify.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/logging.hh"

namespace highlight
{

double
scaledL2Norm(const float *values, std::int64_t count)
{
    if (count <= 0)
        panic("scaledL2Norm: empty span");
    double acc = 0.0;
    for (std::int64_t i = 0; i < count; ++i)
        acc += std::abs(static_cast<double>(values[i]));
    return acc / static_cast<double>(count);
}

namespace
{

/**
 * Keep the top-`keep` entries of `scores` per group; zero out the span
 * behind every dropped entry. `span` is the number of consecutive
 * floats each score covers.
 */
void
pruneGroups(float *row, const std::vector<double> &scores,
            std::int64_t group_size, std::int64_t keep, std::int64_t span)
{
    const auto nscores = static_cast<std::int64_t>(scores.size());
    for (std::int64_t g0 = 0; g0 < nscores; g0 += group_size) {
        // Rank the group members by score descending (stable on index
        // so ties are deterministic).
        std::vector<std::int64_t> order(
            static_cast<std::size_t>(group_size));
        std::iota(order.begin(), order.end(), g0);
        std::stable_sort(order.begin(), order.end(),
                         [&scores](std::int64_t a, std::int64_t b) {
                             return scores[static_cast<std::size_t>(a)] >
                                    scores[static_cast<std::size_t>(b)];
                         });
        for (std::int64_t r = keep; r < group_size; ++r) {
            const std::int64_t victim = order[static_cast<std::size_t>(r)];
            std::fill_n(row + victim * span, span, 0.0f);
        }
    }
}

/** Sparsify one contiguous row of `cols` floats in place. */
void
hssSparsifyRow(float *row, std::int64_t cols, const HssSpec &spec)
{
    // Rank 0: within each block of H0 values keep the G0 largest
    // magnitudes (paper: "for the lowest rank, we sparsify the values
    // with the smallest magnitude").
    {
        const GhPattern &p0 = spec.rank(0);
        std::vector<double> scores(static_cast<std::size_t>(cols));
        for (std::int64_t i = 0; i < cols; ++i)
            scores[static_cast<std::size_t>(i)] =
                std::abs(static_cast<double>(row[i]));
        pruneGroups(row, scores, p0.h, p0.g, 1);
    }

    // Intermediate ranks, lower-to-higher: prune block payloads with the
    // smallest scaled L2 norm.
    for (std::size_t n = 1; n < spec.numRanks(); ++n) {
        const GhPattern &pn = spec.rank(n);
        const std::int64_t span = spec.blockSpan(n);
        const std::int64_t nblocks = cols / span;
        std::vector<double> scores(static_cast<std::size_t>(nblocks));
        for (std::int64_t b = 0; b < nblocks; ++b)
            scores[static_cast<std::size_t>(b)] =
                scaledL2Norm(row + b * span, span);
        pruneGroups(row, scores, pn.h, pn.g, span);
    }
}

} // namespace

DenseTensor
hssSparsify(const DenseTensor &matrix, const HssSpec &spec)
{
    if (matrix.shape().rank() != 2)
        fatal("hssSparsify: expected a rank-2 matrix");
    const std::int64_t rows = matrix.shape().dim(0).extent;
    const std::int64_t cols = matrix.shape().dim(1).extent;
    if (cols % spec.totalSpan() != 0)
        fatal(msgOf("hssSparsify: columns ", cols,
                    " not divisible by HSS span ", spec.totalSpan()));

    DenseTensor out = matrix;
    for (std::int64_t r = 0; r < rows; ++r)
        hssSparsifyRow(out.data().data() + r * cols, cols, spec);
    return out;
}

DenseTensor
hssSparsifyColumns(const DenseTensor &matrix, const HssSpec &spec)
{
    if (matrix.shape().rank() != 2)
        fatal("hssSparsifyColumns: expected a rank-2 matrix");
    const std::int64_t rows = matrix.shape().dim(0).extent;
    const std::int64_t cols = matrix.shape().dim(1).extent;
    if (rows % spec.totalSpan() != 0)
        fatal(msgOf("hssSparsifyColumns: rows ", rows,
                    " not divisible by HSS span ", spec.totalSpan()));

    DenseTensor out = matrix;
    std::vector<float> column(static_cast<std::size_t>(rows));
    for (std::int64_t c = 0; c < cols; ++c) {
        for (std::int64_t r = 0; r < rows; ++r)
            column[static_cast<std::size_t>(r)] = out.at2(r, c);
        hssSparsifyRow(column.data(), rows, spec);
        for (std::int64_t r = 0; r < rows; ++r)
            out.set2(r, c, column[static_cast<std::size_t>(r)]);
    }
    return out;
}

DenseTensor
unstructuredSparsify(const DenseTensor &tensor, double sparsity)
{
    if (!(0.0 <= sparsity && sparsity <= 1.0))
        fatal(msgOf("unstructuredSparsify: sparsity ", sparsity,
                    " outside [0, 1]"));
    DenseTensor out = tensor;
    const auto n = static_cast<std::size_t>(out.numel());
    const auto zeros = static_cast<std::size_t>(
        std::llround(sparsity * static_cast<double>(n)));
    if (zeros == 0)
        return out;

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    // nth_element puts the `zeros` smallest magnitudes first.
    std::nth_element(order.begin(), order.begin() + (zeros - 1),
                     order.end(),
                     [&out](std::size_t a, std::size_t b) {
                         return std::abs(out.data()[a]) <
                                std::abs(out.data()[b]);
                     });
    for (std::size_t i = 0; i < zeros; ++i)
        out.data()[order[i]] = 0.0f;
    return out;
}

} // namespace highlight
