/**
 * @file
 * The HighLight accelerator model (paper Sec 5-6).
 *
 * Operand A: dense or two-rank HSS within C1(4:{4<=H<=8}) ->
 * C0(2:{2<=H<=4}) (Table 3). Hierarchical skipping SAFs exploit both
 * ranks, so speedup is exactly 1/density with perfect workload balance.
 * Operand B: dense or unstructured; exploited by compression (fewer
 * GLB/DRAM words via the three-level metadata of Sec 6.4, streamed
 * through the VFMU) and by gating (idle MACs and suppressed partial-sum
 * updates), which saves energy but not time.
 */

#ifndef HIGHLIGHT_ACCEL_HIGHLIGHT_HH
#define HIGHLIGHT_ACCEL_HIGHLIGHT_HH

#include "accel/accelerator.hh"
#include "energy/mux_model.hh"

namespace highlight
{

/** The HighLight accelerator. */
class HighLightAccel : public Accelerator
{
  public:
    HighLightAccel();

    std::string supportedPatternsA() const override
    {
        return "C1(4:{4<=H<=8})->C0(2:{2<=H<=4})";
    }
    std::string supportedPatternsB() const override
    {
        return "dense; unstructured sparse";
    }

    bool supports(const GemmWorkload &w) const override;
    EvalResult evaluate(const GemmWorkload &w) const override;
    std::vector<BreakdownEntry> areaBreakdown() const override;

    /** True if the HSS spec fits the supported rank patterns. */
    static bool fitsWeightSupport(const HssSpec &spec);

  private:
    MuxModel mux_model_;
};

} // namespace highlight

#endif // HIGHLIGHT_ACCEL_HIGHLIGHT_HH
