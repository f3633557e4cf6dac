/**
 * @file
 * DSSO: the dual structured sparse operands design (paper Sec 7.5).
 *
 * Dual-side HSS with alternating dense ranks: operand A carries
 * C1(dense)->C0(2:4) and operand B carries C1(2:{2<=H<=8})->C0(dense).
 * Both operands are never sparse at the same rank, so each rank's SAF
 * performs a dense-sparse intersection — perfectly balanced by
 * construction — and the speedups multiply (Fig 17: 2x over HighLight
 * at the commonly supported degrees). The cost is fewer supported B
 * degrees and the extra output-recompression machinery the paper
 * leaves as future work.
 */

#ifndef HIGHLIGHT_ACCEL_DSSO_HH
#define HIGHLIGHT_ACCEL_DSSO_HH

#include "accel/accelerator.hh"

namespace highlight
{

/** Dual structured sparse operands accelerator. */
class DssoAccel : public Accelerator
{
  public:
    DssoAccel();

    std::string supportedPatternsA() const override
    {
        return "C1(dense)->C0(2:{2<=H<=4})";
    }
    std::string supportedPatternsB() const override
    {
        return "C1(2:{2<=H<=8})->C0(dense)";
    }

    bool supports(const GemmWorkload &w) const override;
    EvalResult evaluate(const GemmWorkload &w) const override;
    std::vector<BreakdownEntry> areaBreakdown() const override;
};

} // namespace highlight

#endif // HIGHLIGHT_ACCEL_DSSO_HH
