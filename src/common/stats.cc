#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace highlight
{

namespace
{

void
requireNonEmpty(const std::vector<double> &values, const char *who)
{
    if (values.empty())
        fatal(msgOf(who, ": empty sample"));
}

// lgamma_r, not std::lgamma: the latter writes the global signgam and
// the evaluation runtime calls this from concurrent workers.
double
lgammaTs(double x)
{
    int sign = 0;
    return ::lgamma_r(x, &sign);
}

/**
 * exp(log C(n,k) + k log p + (n-k) log1p(-p)) from its precomputed
 * logs. binomialPmf and binomialPmfs both evaluate the mass through
 * this one expression, so the two agree bit for bit.
 */
double
pmfFromLogs(int n, int k, double lg_n1, double lg_k1, double lg_nk1,
            double log_p, double log_q)
{
    const double log_choose = lg_n1 - lg_k1 - lg_nk1;
    const double log_pmf = log_choose + k * log_p + (n - k) * log_q;
    return std::exp(log_pmf);
}

/**
 * lg[j] = lgamma(j + 1) for every j in [0, n], from a per-thread table
 * that grows on demand. Each entry holds the bits lgammaTs(j + 1.0)
 * returns, so readers get the same arguments as a direct call, and
 * after a thread has seen its largest n no call computes an lgamma or
 * allocates.
 */
const double *
lgammaFactorials(int n)
{
    thread_local std::vector<double> table;
    for (std::size_t j = table.size(); j <= static_cast<std::size_t>(n); ++j)
        table.push_back(lgammaTs(static_cast<double>(j) + 1.0));
    return table.data();
}

} // namespace

double
geomean(const std::vector<double> &values)
{
    requireNonEmpty(values, "geomean");
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            fatal(msgOf("geomean: non-positive value ", v));
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    requireNonEmpty(values, "mean");
    const double sum = std::accumulate(values.begin(), values.end(), 0.0);
    return sum / static_cast<double>(values.size());
}

double
minOf(const std::vector<double> &values)
{
    requireNonEmpty(values, "minOf");
    return *std::min_element(values.begin(), values.end());
}

double
maxOf(const std::vector<double> &values)
{
    requireNonEmpty(values, "maxOf");
    return *std::max_element(values.begin(), values.end());
}

double
binomialPmf(int n, int k, double p)
{
    if (k < 0 || k > n)
        return 0.0;
    if (p <= 0.0)
        return k == 0 ? 1.0 : 0.0;
    if (p >= 1.0)
        return k == n ? 1.0 : 0.0;
    // log C(n,k) via lgamma keeps the computation stable for large n.
    return pmfFromLogs(n, k, lgammaTs(n + 1.0), lgammaTs(k + 1.0),
                       lgammaTs(n - k + 1.0), std::log(p),
                       std::log1p(-p));
}

void
binomialPmfs(int n, double p, std::vector<double> &out)
{
    if (n < 0)
        panic("binomialPmfs: negative n");
    out.resize(static_cast<std::size_t>(n) + 1);
    if (p <= 0.0 || p >= 1.0) {
        for (int k = 0; k <= n; ++k)
            out[k] = binomialPmf(n, k, p);
        return;
    }
    const double *lg = lgammaFactorials(n);
    const double log_p = std::log(p);
    const double log_q = std::log1p(-p);
    for (int k = 0; k <= n; ++k)
        out[k] = pmfFromLogs(n, k, lg[n], lg[k], lg[n - k], log_p, log_q);
}

} // namespace highlight
