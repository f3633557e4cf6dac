#include "trace.hh"

#include <algorithm>

namespace perfbench
{

std::int64_t
busyNs(const std::vector<Interval> &spans)
{
    std::int64_t total = 0;
    for (const Interval &s : spans)
        total += s.end - s.begin;
    return total;
}

std::int64_t
unionNs(std::vector<Interval> spans)
{
    std::sort(spans.begin(), spans.end(),
              [](const Interval &a, const Interval &b) {
                  return a.begin < b.begin;
              });
    std::int64_t total = 0;
    std::int64_t cur_begin = 0, cur_end = 0;
    bool open = false;
    for (const Interval &s : spans) {
        if (open && s.begin <= cur_end) {
            cur_end = std::max(cur_end, s.end);
            continue;
        }
        if (open)
            total += cur_end - cur_begin;
        cur_begin = s.begin;
        cur_end = s.end;
        open = true;
    }
    if (open)
        total += cur_end - cur_begin;
    return total;
}

void
addRuntimeLayers(LayerSample &s, std::int64_t batch_ns, std::size_t jobs,
                 const std::vector<Interval> &accel)
{
    const double calls = static_cast<double>(accel.size());
    const std::int64_t busy = busyNs(accel);
    s["runtime.run_batch_ms"] = nsToMs(batch_ns);
    s["runtime.self_ms"] = nsToMs(batch_ns - unionNs(accel));
    s["runtime.jobs"] = static_cast<double>(jobs);
    s["runtime.jobs_per_eval"] =
        calls > 0 ? static_cast<double>(jobs) / calls : 0.0;
    s["accel.evaluate_calls"] = calls;
    s["accel.evaluate_busy_ms"] = nsToMs(busy);
    s["accel.ns_per_evaluate"] =
        calls > 0 ? static_cast<double>(busy) / calls : 0.0;
    s["accel.parallelism"] =
        batch_ns > 0 ? static_cast<double>(busy) /
                           static_cast<double>(batch_ns)
                     : 0.0;
}

TimedAccelerator::TimedAccelerator(const highlight::Accelerator &inner,
                                   SpanLog &log)
    : Accelerator(inner.arch(), inner.lib()), inner_(inner), log_(log)
{
}

std::string
TimedAccelerator::supportedPatternsA() const
{
    return inner_.supportedPatternsA();
}

std::string
TimedAccelerator::supportedPatternsB() const
{
    return inner_.supportedPatternsB();
}

bool
TimedAccelerator::supports(const highlight::GemmWorkload &w) const
{
    return inner_.supports(w);
}

highlight::EvalResult
TimedAccelerator::evaluate(const highlight::GemmWorkload &w) const
{
    const std::int64_t begin = nowNs();
    highlight::EvalResult r = inner_.evaluate(w);
    log_.record(begin, nowNs());
    return r;
}

std::vector<highlight::BreakdownEntry>
TimedAccelerator::areaBreakdown() const
{
    return inner_.areaBreakdown();
}

} // namespace perfbench
