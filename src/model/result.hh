/**
 * @file
 * Evaluation results: cycles, energy breakdown, area breakdown, and the
 * derived metrics (EDP, ED^2) the paper reports.
 */

#ifndef HIGHLIGHT_MODEL_RESULT_HH
#define HIGHLIGHT_MODEL_RESULT_HH

#include <string>
#include <vector>

#include "energy/components.hh"

namespace highlight
{

/**
 * The outcome of evaluating one design on one workload.
 */
struct EvalResult
{
    std::string design;
    std::string workload;
    bool supported = true;   ///< False: design cannot run this workload.
    std::string note;        ///< e.g. why unsupported, or swap applied.

    double cycles = 0.0;
    double clock_mhz = 1000.0;

    /** Energy breakdown in pJ per component. */
    std::vector<BreakdownEntry> energy_pj;

    /** Area breakdown in um^2 per component. */
    std::vector<BreakdownEntry> area_um2;

    /** Add `pj` to the component's energy entry (creating it). */
    void addEnergy(const std::string &component, double pj);

    /** Total energy in pJ. */
    double totalEnergyPj() const;

    /** Execution time in seconds. */
    double delaySeconds() const;

    /** Energy-delay product in J*s. */
    double edp() const;

    /** Energy-delay-squared product in J*s^2. */
    double ed2() const;
};

/** result.metric / baseline.metric for each reported metric. */
struct NormalizedMetrics
{
    double latency = 0.0;
    double energy = 0.0;
    double edp = 0.0;
    double ed2 = 0.0;
};

/** Normalize `result` against `baseline` (both must be supported). */
NormalizedMetrics normalizeTo(const EvalResult &result,
                              const EvalResult &baseline);

} // namespace highlight

#endif // HIGHLIGHT_MODEL_RESULT_HH
