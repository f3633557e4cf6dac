/**
 * @file
 * Synthetic tensor generators.
 *
 * The paper's synthetic workloads (Sec 7.1.2) use 1024x1024 matrices
 * with controlled sparsity degrees; the DNN suites need weight-like
 * value distributions so magnitude-based sparsification is meaningful.
 * These generators substitute for the ImageNet/WMT16-trained models we
 * cannot train here (see FIDELITY.md, Substitutions).
 */

#ifndef HIGHLIGHT_TENSOR_GENERATOR_HH
#define HIGHLIGHT_TENSOR_GENERATOR_HH

#include <cstdint>

#include "common/random.hh"
#include "tensor/dense_tensor.hh"

namespace highlight
{

/**
 * Dense tensor with i.i.d. N(0, 1) values, no exact zeros (resampled).
 * Weight-like: magnitudes vary so top-G selection is non-degenerate.
 */
DenseTensor randomDense(const TensorShape &shape, Rng &rng);

/**
 * Unstructured sparse tensor: exactly round(sparsity * numel) entries
 * are zero, at uniformly random locations; the rest ~ N(0, 1).
 */
DenseTensor randomUnstructured(const TensorShape &shape, double sparsity,
                               Rng &rng);

} // namespace highlight

#endif // HIGHLIGHT_TENSOR_GENERATOR_HH
