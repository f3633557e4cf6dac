/**
 * @file
 * Shared evaluation harness (paper Sec 7.1.1).
 *
 * Implements the fairness rules: every design is evaluated with the
 * same engine and component library, and because matrix-multiplication
 * accelerators treat operands interchangeably, designs may swap
 * operands and report the better result (e.g. STC swaps when B is the
 * structured-sparse side).
 */

#ifndef HIGHLIGHT_ACCEL_HARNESS_HH
#define HIGHLIGHT_ACCEL_HARNESS_HH

#include <memory>
#include <vector>

#include "accel/accelerator.hh"

namespace highlight
{

/**
 * Evaluate with operand swapping: runs the workload as-is and swapped
 * (when either is supported) and returns the lower-EDP result.
 */
EvalResult evaluateBest(const Accelerator &accel, const GemmWorkload &w);

/**
 * The standard five-design lineup of the paper's evaluation:
 * TC, STC, S2TA, DSTC, HighLight (owned by the returned vector).
 */
std::vector<std::unique_ptr<Accelerator>> standardDesigns();

} // namespace highlight

#endif // HIGHLIGHT_ACCEL_HARNESS_HH
