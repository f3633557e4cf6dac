/**
 * @file
 * Small statistics helpers shared by the evaluation harness and benches.
 *
 * The paper reports geometric means across workloads (Fig 14) and
 * max factors ("up to 20.4x"), so those summaries live here.
 */

#ifndef HIGHLIGHT_COMMON_STATS_HH
#define HIGHLIGHT_COMMON_STATS_HH

#include <vector>

namespace highlight
{

/**
 * Geometric mean of strictly positive values. Fatal on empty input and
 * on a value that is not positive (NaN included).
 */
double geomean(const std::vector<double> &values);

/** Maximum element. Fatal on empty input and on a NaN. */
double maxOf(const std::vector<double> &values);

/** Probability mass P[X = k] for X ~ Binomial(n, p), computed stably. */
double binomialPmf(int n, int k, double p);

/**
 * The whole mass function of X ~ Binomial(n, p): out[k] = P[X = k] for
 * every k in [0, n], each bit-identical to binomialPmf(n, k, p).
 *
 * Used by the DSTC workload-balance model (Sec 2.2.1: occupancy must be
 * a multiple of the compute-column width for perfect balance), which
 * runs it once per miss of unstructuredUtilization's per-thread memo.
 * Summing binomialPmf term by term costs three lgamma calls plus a
 * log, a log1p and an exp per k; here log p and log1p(-p) are computed
 * once, and lgamma(j+1) comes from a per-thread table that holds the
 * same lgamma_r bits and grows on demand. So once a thread has seen its
 * largest n, a call costs no lgamma, one log, one log1p and n + 1 exp.
 *
 * @param n   Number of Bernoulli trials; panics when negative.
 * @param p   Success probability.
 * @param out Resized to n + 1; reuses its capacity, so a caller that
 *            keeps the vector does not allocate after the first call.
 */
void binomialPmfs(int n, double p, std::vector<double> &out);

} // namespace highlight

#endif // HIGHLIGHT_COMMON_STATS_HH
