/**
 * @file
 * DSTC-like dual-sided unstructured sparse accelerator model [52].
 *
 * Bitmask-compressed operands feed an outer-product dataflow: every
 * nonzero-A x nonzero-B pair is effectual, so no intersection hardware
 * is needed — but each partial product scatters to the accumulation
 * storage individually (no spatial reduction), which is the design's
 * dominant sparsity tax. Workload balance is only perfect when
 * sub-tensor occupancy is a multiple of the 32-lane column width
 * (Sec 2.2.1), modeled with an exact binomial expectation.
 */

#ifndef HIGHLIGHT_ACCEL_DSTC_HH
#define HIGHLIGHT_ACCEL_DSTC_HH

#include "accel/accelerator.hh"

namespace highlight
{

/** Dual-side sparse tensor core (unstructured) accelerator. */
class DstcLike : public Accelerator
{
  public:
    DstcLike();

    std::string supportedPatternsA() const override
    {
        return "dense; unstructured sparse";
    }
    std::string supportedPatternsB() const override
    {
        return "dense; unstructured sparse";
    }

    bool supports(const GemmWorkload &w) const override;
    EvalResult evaluate(const GemmWorkload &w) const override;
    std::vector<BreakdownEntry> areaBreakdown() const override;

    /** Lane width whose multiples give perfect balance. */
    static constexpr int kLaneWidth = 32;
};

} // namespace highlight

#endif // HIGHLIGHT_ACCEL_DSTC_HH
