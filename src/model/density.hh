/**
 * @file
 * Statistical density models (the Sparseloop methodology [54]; the
 * paper adds an HSS density model, Sec 7.1.3).
 *
 * Structured operands have *fixed* per-tile occupancy — that is the
 * whole point of HSS: tile occupancy equals G/H exactly, so workload
 * balance is perfect. Unstructured operands have hypergeometric /
 * binomial tile occupancy, which is what breaks balance on DSTC-style
 * designs (Sec 2.2.1).
 */

#ifndef HIGHLIGHT_MODEL_DENSITY_HH
#define HIGHLIGHT_MODEL_DENSITY_HH

#include <cstdint>

#include "sparsity/hss.hh"

namespace highlight
{

/**
 * Probability that a block of `block` elements from an unstructured
 * tensor of the given density contains at least one nonzero.
 */
double blockNonEmptyProb(double density, std::int64_t block);

/**
 * Expected compute-lane utilization of a DSTC-style design with
 * `lane_width` parallel lanes fed from sub-tensors of `sample_block`
 * elements with unstructured density `density`.
 *
 * DSTC only achieves perfect balance when a sub-tensor's occupancy is
 * a multiple of the lane width (Sec 2.2.1); otherwise the last lane
 * group runs partially empty. util = E[occ] / E[ceil(occ/W) * W] with
 * occ ~ Binomial(sample_block, density). Structured operands (exact
 * occupancy) get util = 1 from the same formula. Density 0 returns 1
 * (no work at all); a density that is NaN, below 0 or above 1 is fatal.
 *
 * Each thread keeps a fixed-size, direct-mapped memo of 64 slots keyed
 * on (density bits, lane_width, sample_block), checked after the
 * arguments. DSTC evaluates each operand's utilization in both operand
 * orders, so its evaluateBest computes at most two mass functions and
 * a sweep's repeated densities cost one lookup each. The memo is exact
 * (the model is a pure function of the key) and invisible in every
 * result. Makes no heap allocation after its first call on a thread,
 * unless sample_block grows.
 */
double unstructuredUtilization(double density, int lane_width,
                               int sample_block = 128);

/**
 * The HSS density model: the exact stored/compute density of a
 * conforming operand is prod(Gn/Hn); this helper merely documents the
 * equivalence and funnels every model through one call site.
 */
double hssDensity(const HssSpec &spec);

} // namespace highlight

#endif // HIGHLIGHT_MODEL_DENSITY_HH
