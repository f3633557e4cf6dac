/**
 * @file
 * TC-like dense accelerator model (paper Sec 7.1.1, representing
 * [4, 25, 36]).
 *
 * Oblivious to sparsity: every multiplication executes at full energy,
 * operands are stored uncompressed, and there is no SAF hardware at
 * all — zero sparsity tax, zero sparsity benefit.
 */

#ifndef HIGHLIGHT_ACCEL_TC_HH
#define HIGHLIGHT_ACCEL_TC_HH

#include "accel/accelerator.hh"

namespace highlight
{

/** Dense tensor-core-like accelerator. */
class TcLike : public Accelerator
{
  public:
    TcLike();

    std::string supportedPatternsA() const override { return "dense"; }
    std::string supportedPatternsB() const override { return "dense"; }

    bool supports(const GemmWorkload &w) const override;
    EvalResult evaluate(const GemmWorkload &w) const override;
    std::vector<BreakdownEntry> areaBreakdown() const override;
};

} // namespace highlight

#endif // HIGHLIGHT_ACCEL_TC_HH
