/**
 * @file
 * STC-like single-sided structured sparse accelerator model
 * (NVIDIA sparse tensor core [37], also representing [60]).
 *
 * Supports operand A that is dense or fits the C0({G<=2}:4) pattern.
 * Sparse mode stores A as 2-of-4 blocks (2-bit offsets) and skips at a
 * fixed 2x rate: even a 1:4 operand runs at 2x, with the empty lane
 * slot idling — the "limited sparsity degree" inflexibility the paper
 * quantifies. Operand B is processed as dense values (no gating, no
 * compression).
 */

#ifndef HIGHLIGHT_ACCEL_STC_HH
#define HIGHLIGHT_ACCEL_STC_HH

#include "accel/accelerator.hh"

namespace highlight
{

/** Sparse-tensor-core-like accelerator. */
class StcLike : public Accelerator
{
  public:
    StcLike();

    std::string supportedPatternsA() const override
    {
        return "dense; C0({G<=2}:4)";
    }
    std::string supportedPatternsB() const override { return "dense"; }

    bool supports(const GemmWorkload &w) const override;
    EvalResult evaluate(const GemmWorkload &w) const override;
    std::vector<BreakdownEntry> areaBreakdown() const override;

    /** True if the operand can run in the 2:4 skipping mode. */
    static bool fitsSparseMode(const OperandSparsity &a);
};

} // namespace highlight

#endif // HIGHLIGHT_ACCEL_STC_HH
