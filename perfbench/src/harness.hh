/**
 * @file
 * The closed loop: one client issues the next op only after the
 * previous one completed and was checked, as a figure driver run by a
 * researcher does. Only the op itself is timed; the bit-exact check runs after
 * the timer stops.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workload.hh"

namespace perfbench
{

struct LoopOptions
{
    /** Keep issuing ops until this much time has passed... */
    double seconds = 1.0;
    /** ...and at least this many ops of each form have completed. */
    std::size_t min_ops = 100;
    /** Alternate untraced and traced ops (for the per-layer run). */
    bool trace = false;
    /** Called after each op, before the check (checker self-test). */
    std::function<void(Workload &)> tamper;
    /** Called after each op's check, outside every timer. */
    std::function<void()> between_ops;
};

struct LoopResult
{
    std::vector<double> op_ms;        ///< Untraced op wall times.
    std::vector<double> op_cpu_ms;    ///< Their CPU time, all threads.
    std::vector<double> traced_op_ms; ///< Traced op wall times.
    std::vector<LayerSample> layers;  ///< One per traced op, aligned.
    std::int64_t attempted = 0;
    std::int64_t failed = 0; ///< Ops that threw or mismatched.
};

/**
 * Run ops until `opt` is satisfied. An op fails when it throws or when
 * its result's fingerprint differs from `reference`.
 */
LoopResult runLoop(Workload &wl, const std::string &reference,
                   const LoopOptions &opt);

/** Linear-interpolated quantile q in [0, 1]; 0 for an empty set. */
double quantile(std::vector<double> v, double q);

/** Outcome of looking up a golden digest. */
enum class Golden
{
    Found,
    NoEntry,   ///< The file has no line for (workload, seed).
    Unreadable ///< The file cannot be opened.
};

/**
 * Look up the golden digest of (workload, seed) in a file of
 * "<workload> <seed> <hex digest>" lines.
 */
Golden readGolden(const std::string &path, const std::string &workload,
                  std::uint64_t seed, std::uint64_t *digest);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
