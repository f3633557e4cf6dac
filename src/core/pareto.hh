/**
 * @file
 * Pareto-frontier utilities for the EDP-vs-accuracy-loss analysis
 * (paper Sec 7.3, Fig 15).
 */

#ifndef HIGHLIGHT_CORE_PARETO_HH
#define HIGHLIGHT_CORE_PARETO_HH

#include <string>
#include <vector>

namespace highlight
{

/** One candidate point: lower x and lower y are both better. */
struct ParetoPoint
{
    double x = 0.0; ///< e.g. accuracy loss.
    double y = 0.0; ///< e.g. normalized EDP.
    std::string label;
};

/**
 * Batched frontier membership: mask[i] is true iff points[i] is on
 * the Pareto frontier (no other point is <= in both coordinates with
 * < in at least one).
 */
std::vector<bool> frontierMask(const std::vector<ParetoPoint> &points);

} // namespace highlight

#endif // HIGHLIGHT_CORE_PARETO_HH
