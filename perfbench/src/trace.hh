/**
 * @file
 * Outside-in tracing for the benchmark: spans are timed around calls
 * into the library's public entry points, never inside the library.
 *
 * A SpanLog collects [begin, end) intervals from any thread; the
 * benchmark merges them after the op, off the timed path. A
 * TimedAccelerator wraps a real design and records one span per
 * Accelerator::evaluate call, so it can ride through EvalJob into the
 * runtime unchanged: it keeps the wrapped design's ArchSpec (and so its
 * name, which is all the eval cache keys on) and forwards every call.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <time.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "accel/accelerator.hh"
#include "common/mutex.hh"
#include "workload.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (an arbitrary but fixed origin). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/**
 * CPU time of the whole process: every thread, including threads that
 * have exited. Time the hypervisor steals from a vCPU is not charged.
 */
inline std::int64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double
nsToMs(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

struct Interval
{
    std::int64_t begin = 0;
    std::int64_t end = 0;
};

/** Thread-safe append-only interval log. */
class SpanLog
{
  public:
    void
    record(std::int64_t begin, std::int64_t end)
    {
        highlight::MutexLock lock(mu_);
        spans_.push_back({begin, end});
    }

    /** Take every recorded span; call when no recorder is running. */
    std::vector<Interval>
    take()
    {
        highlight::MutexLock lock(mu_);
        std::vector<Interval> out;
        out.swap(spans_);
        return out;
    }

  private:
    highlight::Mutex mu_;
    std::vector<Interval> spans_ GUARDED_BY(mu_);
};

/** Sum of the span durations. */
std::int64_t busyNs(const std::vector<Interval> &spans);

/** Length of the union of the spans (overlaps counted once). */
std::int64_t unionNs(std::vector<Interval> spans);

/**
 * The runtime and accel per-layer values of one op that spent
 * `batch_ns` inside Evaluator::runBatch on `jobs` jobs, while the
 * designs' evaluate() calls logged `accel`. Runtime self time is the
 * batch time not covered by any evaluate() call on any thread.
 */
void addRuntimeLayers(LayerSample &s, std::int64_t batch_ns,
                      std::size_t jobs, const std::vector<Interval> &accel);

/** A design that forwards to `inner` and logs each evaluate() call. */
class TimedAccelerator final : public highlight::Accelerator
{
  public:
    TimedAccelerator(const highlight::Accelerator &inner, SpanLog &log);

    std::string supportedPatternsA() const override;
    std::string supportedPatternsB() const override;
    bool supports(const highlight::GemmWorkload &w) const override;
    highlight::EvalResult
    evaluate(const highlight::GemmWorkload &w) const override;
    std::vector<highlight::BreakdownEntry> areaBreakdown() const override;

  private:
    const highlight::Accelerator &inner_;
    SpanLog &log_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
