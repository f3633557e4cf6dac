/**
 * @file
 * gemm_matrix: one op is one Evaluator::runBatch on a fresh Evaluator
 * over every design x 128 seeded GEMMs. Every key is unique, so every
 * job misses: the accel layer does the work and the cache only
 * inserts. This is pareto_sweep's writes-beside-reads twin — a
 * hit-path gain that costs the miss path shows here.
 */

#include <memory>
#include <set>
#include <tuple>

#include "accel/harness.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/evaluator.hh"
#include "fingerprint.hh"
#include "trace.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace highlight;

constexpr int kGemms = 128;
constexpr std::int64_t kDimStep = 64;
constexpr std::int64_t kDimSteps = 64; ///< Dims up to 64 * 64 = 4096.

/**
 * `count` distinct GEMMs: M/K/N in multiples of 64 up to 4096, A
 * unstructured or the nearest HighLight HSS pattern, B unstructured.
 */
std::vector<GemmWorkload>
seededGemms(std::uint64_t seed, int count)
{
    Rng rng(seed);
    const auto hss_support = highlightWeightSupport();
    std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t,
                        std::string, std::string>>
        seen;
    std::vector<GemmWorkload> out;
    while (static_cast<int>(out.size()) < count) {
        GemmWorkload w;
        w.m = kDimStep * rng.uniformInt(1, kDimSteps);
        w.k = kDimStep * rng.uniformInt(1, kDimSteps);
        w.n = kDimStep * rng.uniformInt(1, kDimSteps);
        const double a_density = rng.uniform(0.1, 1.0);
        w.a = rng.bernoulli(0.5)
                  ? OperandSparsity::unstructured(a_density)
                  : OperandSparsity::structured(
                        chooseSpecForDensity(hss_support, a_density));
        w.b = OperandSparsity::unstructured(rng.uniform(0.1, 1.0));
        const std::string a_key =
            msgOf(w.a.str(), "/", std::hexfloat, w.a.density);
        const std::string b_key = msgOf(std::hexfloat, w.b.density);
        if (!seen.insert({w.m, w.k, w.n, a_key, b_key}).second)
            continue;
        w.name = msgOf("gemm", out.size());
        out.push_back(std::move(w));
    }
    return out;
}

class GemmMatrix final : public Workload
{
  public:
    void
    setup(std::uint64_t seed) override
    {
        designs_ = std::make_unique<Evaluator>();
        timed_.clear();
        for (const Accelerator *d : designs_->designs())
            timed_.push_back(std::make_unique<TimedAccelerator>(*d, log_));
        const auto gemms = seededGemms(seed, kGemms);
        const auto designs = designs_->designs();
        jobs_.clear();
        timed_jobs_.clear();
        for (std::size_t d = 0; d < designs.size(); ++d) {
            for (const auto &w : gemms) {
                jobs_.push_back({designs[d], w});
                timed_jobs_.push_back({timed_[d].get(), w});
            }
        }
    }

    bool
    buildReference(std::string *fingerprint) override
    {
        Fingerprint f;
        for (const EvalJob &job : jobs_)
            f.add(evaluateBest(*job.design, job.workload));
        *fingerprint = f.bytes();
        return true;
    }

    void
    runOp(bool traced) override
    {
        const Evaluator ev;
        if (!traced) {
            last_ = ev.runBatch(jobs_);
            return;
        }
        const std::int64_t t0 = nowNs();
        last_ = ev.runBatch(timed_jobs_);
        batch_ns_ = nowNs() - t0;
        accel_ = log_.take();
    }

    std::string
    lastFingerprint() const override
    {
        Fingerprint f;
        for (const auto &r : last_)
            f.add(r);
        return f.bytes();
    }

    LayerSample
    lastLayers() const override
    {
        LayerSample s;
        addRuntimeLayers(s, batch_ns_, timed_jobs_.size(), accel_);
        s[kPathMs] = nsToMs(batch_ns_);
        return s;
    }

    void
    corruptLast() override
    {
        flipLowBit(last_.front().cycles);
    }

  private:
    SpanLog log_;

    /** Owns the design models the jobs and the wrappers point to. */
    std::unique_ptr<Evaluator> designs_;
    std::vector<std::unique_ptr<TimedAccelerator>> timed_;

    std::vector<EvalJob> jobs_;       ///< Design-major: designs x GEMMs.
    std::vector<EvalJob> timed_jobs_; ///< The same jobs, wrapped designs.

    std::vector<EvalResult> last_;
    std::int64_t batch_ns_ = 0;
    std::vector<Interval> accel_;
};

} // namespace

std::unique_ptr<Workload>
makeGemmMatrix()
{
    return std::make_unique<GemmMatrix>();
}

} // namespace perfbench
