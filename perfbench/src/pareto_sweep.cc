/**
 * @file
 * pareto_sweep: one op is fig15's full sweep on a fresh Evaluator —
 * 3 DNNs x 16 co-design candidates through runDnn, then one frontier
 * per DNN. 4,544 layer jobs share 466 unique keys, so the runtime's
 * dedupe and the core layer do most of the work. The seed only
 * shuffles the order the 48 (DNN, candidate) pairs are evaluated in.
 */

#include <memory>

#include "accel/harness.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/evaluator.hh"
#include "core/pareto.hh"
#include "dnn/deit.hh"
#include "dnn/resnet50.hh"
#include "dnn/transformer.hh"
#include "fingerprint.hh"
#include "trace.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace highlight;

struct ModelCase
{
    DnnModel model;
    DnnName name;
};

/** fig15's co-design candidates; index 0 is the dense-TC baseline. */
std::vector<DnnScenario>
fig15Candidates()
{
    std::vector<DnnScenario> c;
    c.push_back({"TC", PruningApproach::Dense, 0.0});
    for (double s : {0.3, 0.5})
        c.push_back({"TC", PruningApproach::Channel, s});
    c.push_back({"STC", PruningApproach::OneRankGh, 0.5});
    for (double s : {0.5, 0.625, 0.75})
        c.push_back({"S2TA", PruningApproach::OneRankGh, s});
    for (double s : {0.5, 0.6, 0.7, 0.8, 0.9})
        c.push_back({"DSTC", PruningApproach::Unstructured, s});
    for (double s : {0.5, 0.6, 2.0 / 3.0, 0.75})
        c.push_back({"HighLight", PruningApproach::Hss, s});
    return c;
}

/** Evaluator::runDnn's layer-order reduction, applied to `results`. */
DnnEvalResult
reduceLayers(const DnnScenario &c, DnnName nm,
             std::vector<EvalResult> results)
{
    DnnEvalResult out;
    out.design = c.design;
    out.accuracy_loss =
        AccuracyModel::loss(nm, c.approach, c.weight_sparsity);
    for (EvalResult &r : results) {
        if (!r.supported) {
            out.supported = false;
            out.note = msgOf("layer ", r.workload, ": ", r.note);
            out.per_layer.clear();
            out.total_energy_pj = 0.0;
            out.total_cycles = 0.0;
            return out;
        }
        out.total_energy_pj += r.totalEnergyPj();
        out.total_cycles += r.cycles;
        out.per_layer.push_back(std::move(r));
    }
    return out;
}

class ParetoSweep final : public Workload
{
  public:
    ParetoSweep() : candidates_(fig15Candidates()) {}

    void
    setup(std::uint64_t seed) override
    {
        designs_ = std::make_unique<Evaluator>();
        timed_.clear();
        for (const Accelerator *d : designs_->designs())
            timed_.push_back(std::make_unique<TimedAccelerator>(*d, log_));
        models_ = {{resnet50Model(), DnnName::ResNet50},
                   {transformerBigModel(), DnnName::TransformerBig},
                   {deitSmallModel(), DnnName::DeitSmall}};
        const std::size_t pairs = models_.size() * candidates_.size();
        order_.resize(pairs);
        for (std::size_t i = 0; i < pairs; ++i)
            order_[i] = i;
        Rng rng(seed);
        for (std::size_t i = pairs - 1; i > 0; --i) {
            const auto j = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(i)));
            std::swap(order_[i], order_[j]);
        }
    }

    bool
    buildReference(std::string *fingerprint) override
    {
        std::vector<DnnEvalResult> ref(order_.size());
        for (std::size_t idx = 0; idx < ref.size(); ++idx) {
            const ModelCase &mc = modelOf(idx);
            const DnnScenario &c = candidateOf(idx);
            const Accelerator &accel = designs_->design(c.design);
            std::vector<EvalResult> layers;
            for (const auto &w : designs_->buildDnnWorkloads(mc.model, c))
                layers.push_back(evaluateBest(accel, w));
            ref[idx] = reduceLayers(c, mc.name, std::move(layers));
        }
        *fingerprint = fingerprintOf(ref, frontiers(ref));
        return true;
    }

    void
    runOp(bool traced) override
    {
        last_.assign(order_.size(), DnnEvalResult{});
        const Evaluator ev;
        if (!traced) {
            for (const std::size_t idx : order_) {
                const ModelCase &mc = modelOf(idx);
                last_[idx] = ev.runDnn(mc.model, mc.name, candidateOf(idx));
            }
            last_masks_ = frontiers(last_);
            return;
        }

        // runDnn recomposed: buildDnnWorkloads -> runBatch (through
        // the timing wrappers) -> layer-order reduce.
        spans_ = OpSpans{};
        std::vector<EvalJob> jobs;
        for (const std::size_t idx : order_) {
            const ModelCase &mc = modelOf(idx);
            const DnnScenario &c = candidateOf(idx);
            const std::int64_t t0 = nowNs();
            auto suite = ev.buildDnnWorkloads(mc.model, c);
            const Accelerator *accel = timedDesign(c.design);
            jobs.clear();
            for (auto &w : suite)
                jobs.push_back({accel, std::move(w)});
            const std::int64_t t1 = nowNs();
            std::vector<EvalResult> results = ev.runBatch(jobs);
            const std::int64_t t2 = nowNs();
            last_[idx] = reduceLayers(c, mc.name, std::move(results));
            const std::int64_t t3 = nowNs();
            spans_.build += t1 - t0;
            spans_.batch += t2 - t1;
            spans_.reduce += t3 - t2;
            spans_.jobs += jobs.size();
        }
        const std::int64_t t4 = nowNs();
        last_masks_ = frontiers(last_);
        spans_.frontier = nowNs() - t4;
        spans_.accel = log_.take();
    }

    std::string
    lastFingerprint() const override
    {
        return fingerprintOf(last_, last_masks_);
    }

    LayerSample
    lastLayers() const override
    {
        LayerSample s;
        s["core.build_workloads_ms"] = nsToMs(spans_.build);
        s["core.reduce_ms"] = nsToMs(spans_.reduce);
        s["core.frontier_ms"] = nsToMs(spans_.frontier);
        addRuntimeLayers(s, spans_.batch, spans_.jobs, spans_.accel);
        s[kPathMs] = nsToMs(spans_.build + spans_.batch + spans_.reduce +
                            spans_.frontier);
        return s;
    }

    void
    corruptLast() override
    {
        flipLowBit(last_.front().total_cycles);
    }

  private:
    struct OpSpans
    {
        std::int64_t build = 0, batch = 0, reduce = 0, frontier = 0;
        std::size_t jobs = 0;
        std::vector<Interval> accel;
    };

    /** Pairs are indexed model-major: idx = model * 16 + candidate. */
    const ModelCase &
    modelOf(std::size_t idx) const
    {
        return models_[idx / candidates_.size()];
    }

    const DnnScenario &
    candidateOf(std::size_t idx) const
    {
        return candidates_[idx % candidates_.size()];
    }

    const Accelerator *
    timedDesign(const std::string &name) const
    {
        for (const auto &t : timed_) {
            if (t->name() == name)
                return t.get();
        }
        fatal(msgOf("pareto_sweep: unknown design ", name));
    }

    /** fig15's frontier per DNN over its supported candidates, with
     *  EDP normalized to the DNN's dense-TC baseline. */
    std::vector<std::vector<bool>>
    frontiers(const std::vector<DnnEvalResult> &results) const
    {
        std::vector<std::vector<bool>> masks;
        const std::size_t nc = candidates_.size();
        for (std::size_t m = 0; m < models_.size(); ++m) {
            const double tc_edp = results[m * nc].edp();
            std::vector<ParetoPoint> points;
            for (std::size_t c = 0; c < nc; ++c) {
                const DnnEvalResult &r = results[m * nc + c];
                if (r.supported)
                    points.push_back(
                        {r.accuracy_loss, r.edp() / tc_edp, r.design});
            }
            masks.push_back(frontierMask(points));
        }
        return masks;
    }

    static std::string
    fingerprintOf(const std::vector<DnnEvalResult> &results,
                  const std::vector<std::vector<bool>> &masks)
    {
        Fingerprint f;
        for (const auto &r : results)
            f.add(r);
        for (const auto &m : masks)
            f.add(m);
        return f.bytes();
    }

    const std::vector<DnnScenario> candidates_;
    SpanLog log_;

    /** Owns the design models the reference and the wrappers use. */
    std::unique_ptr<Evaluator> designs_;
    std::vector<std::unique_ptr<TimedAccelerator>> timed_;
    std::vector<ModelCase> models_;
    std::vector<std::size_t> order_;

    std::vector<DnnEvalResult> last_;
    std::vector<std::vector<bool>> last_masks_;
    OpSpans spans_;
};

} // namespace

std::unique_ptr<Workload>
makeParetoSweep()
{
    return std::make_unique<ParetoSweep>();
}

} // namespace perfbench
