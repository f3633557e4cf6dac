/**
 * @file
 * S2TA-like dual-sided structured sparse accelerator model [30].
 *
 * Requires operand A in C0({G<=4}:8) — i.e. at least 50% structured
 * sparse; purely dense layers are unsupported (paper Sec 7.3). Operand
 * B runs as C0({G<=8}:8) density-bound blocks: unstructured activations
 * are dynamically bounded to the next G/8 grid point. Both sides skip,
 * so speedup multiplies, but the dual-side selection hardware and the
 * minimum-sparsity requirement are its inflexibility.
 */

#ifndef HIGHLIGHT_ACCEL_S2TA_HH
#define HIGHLIGHT_ACCEL_S2TA_HH

#include "accel/accelerator.hh"

namespace highlight
{

/** S2TA-like dual-side G:8 accelerator. */
class S2taLike : public Accelerator
{
  public:
    S2taLike();

    std::string supportedPatternsA() const override
    {
        return "C0({G<=4}:8)";
    }
    std::string supportedPatternsB() const override
    {
        return "C0({G<=8}:8)";
    }

    bool supports(const GemmWorkload &w) const override;
    EvalResult evaluate(const GemmWorkload &w) const override;
    std::vector<BreakdownEntry> areaBreakdown() const override;

    /** Quantize a density up to the next G/8 grid point. */
    static int quantizeG8(double density);
};

} // namespace highlight

#endif // HIGHLIGHT_ACCEL_S2TA_HH
