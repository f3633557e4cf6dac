/**
 * @file
 * DNN layer shapes and the conv -> GEMM lowering (paper Sec 6.1,
 * Fig 8(a)).
 *
 * HighLight processes every layer as a matrix multiplication:
 * fully-connected / attention projections map directly; convolutions
 * flatten the weights to M x (C*R*S) and Toeplitz-expand the input to
 * (C*R*S) x (P*Q).
 */

#ifndef HIGHLIGHT_DNN_LAYER_HH
#define HIGHLIGHT_DNN_LAYER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/dense_tensor.hh"

namespace highlight
{

/** A convolution layer's shape parameters. */
struct ConvShape
{
    std::string name;
    std::int64_t c = 1; ///< Input channels.
    std::int64_t m = 1; ///< Output channels (filters).
    std::int64_t r = 1; ///< Filter height.
    std::int64_t s = 1; ///< Filter width.
    std::int64_t p = 1; ///< Output height.
    std::int64_t q = 1; ///< Output width.
    std::int64_t stride = 1;

    /** Input height/width implied by output size, stride and filter. */
    std::int64_t inputH() const { return (p - 1) * stride + r; }
    std::int64_t inputW() const { return (q - 1) * stride + s; }
};

/** One GEMM-lowered DNN layer. */
struct DnnLayer
{
    std::string name;
    std::int64_t m = 0; ///< Output channels / features.
    std::int64_t k = 0; ///< Reduction length (C*R*S for convs).
    std::int64_t n = 0; ///< Output spatial positions / tokens.
    bool prunable = true; ///< Whether this suite prunes its weights.

    double denseMacs() const
    {
        return static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n);
    }
};

/** Lower a convolution shape to its GEMM shape (Fig 8(a)). */
DnnLayer convToGemm(const ConvShape &conv, bool prunable = true);

/**
 * Toeplitz-expand an input activation tensor [C, H, W] for the given
 * convolution into the (C*R*S) x (P*Q) operand-B matrix (Fig 8(a)).
 * The tests use it to check, on real data, that convToGemm's shapes
 * compute the convolution, in the microsim too.
 */
DenseTensor toeplitzExpand(const DenseTensor &input,
                           const ConvShape &conv);

/** Flatten conv weights [M, C, R, S] into the M x (C*R*S) operand A. */
DenseTensor flattenWeights(const DenseTensor &weights);

/** A DNN model: its layers plus suite-level metadata. */
struct DnnModel
{
    std::string name;
    std::vector<DnnLayer> layers;
    /** Typical activation (operand B) density for this model. */
    double activation_density = 1.0;

    /** Total dense MACs across layers. */
    double totalMacs() const;

    /** Fraction of weights living in prunable layers. */
    double prunableWeightFraction() const;
};

} // namespace highlight

#endif // HIGHLIGHT_DNN_LAYER_HH
