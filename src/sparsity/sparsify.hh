/**
 * @file
 * DNN sparsification with HSS and baseline patterns (paper Sec 4.2).
 *
 * The HSS sparsifier works rank-by-rank, lower-to-higher: at the lowest
 * rank it zeroes the smallest-magnitude values inside every H0 block;
 * at each intermediate rank n it prunes the blocks whose payloads have
 * the smallest *scaled L2 norm* — defined by the paper as the average
 * magnitude of all values in the payload — keeping at most Gn non-empty
 * blocks per group of Hn.
 *
 * Matrices are sparsified along their innermost (column) dimension,
 * matching the paper's flattened-weight layout where the C (channel)
 * rank is innermost after the RS->C1->C0 reordering.
 */

#ifndef HIGHLIGHT_SPARSITY_SPARSIFY_HH
#define HIGHLIGHT_SPARSITY_SPARSIFY_HH

#include <cstdint>

#include "common/random.hh"
#include "sparsity/hss.hh"
#include "tensor/dense_tensor.hh"

namespace highlight
{

/**
 * Apply an N-rank HSS pattern to a rank-2 matrix along its columns.
 *
 * Every row is treated as an independent flattened fiber: the column
 * count must be divisible by spec.totalSpan() (pad with zero columns
 * first if not).
 * Returns a new tensor; the input is untouched.
 */
DenseTensor hssSparsify(const DenseTensor &matrix, const HssSpec &spec);

/**
 * Apply an N-rank HSS pattern to a rank-2 matrix along its *rows*
 * (each column is an independent fiber). Used for operand-B patterns
 * like DSSO's C1(Gb:Hb)->C0(dense), which run along the K dimension of
 * a K x N activation matrix. Row count must be divisible by
 * spec.totalSpan().
 */
DenseTensor hssSparsifyColumns(const DenseTensor &matrix,
                               const HssSpec &spec);

/**
 * Unstructured magnitude pruning: zero the `round(sparsity * numel)`
 * smallest-magnitude entries of the whole tensor (ties broken by index).
 */
DenseTensor unstructuredSparsify(const DenseTensor &tensor,
                                 double sparsity);

/**
 * Average magnitude of a contiguous span of values — the paper's
 * "scaled L2 norm" used to rank intermediate-rank payloads.
 */
double scaledL2Norm(const float *values, std::int64_t count);

} // namespace highlight

#endif // HIGHLIGHT_SPARSITY_SPARSIFY_HH
