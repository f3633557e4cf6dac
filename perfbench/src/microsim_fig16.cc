/**
 * @file
 * microsim_fig16: one op is three HighlightSimulator::run calls at
 * fig16 size (M32/K1024/N128): C1(4:8)->C0(2:4) A with dense B, the
 * same A with 65%-sparse compressed B, and a one-rank C0(2:4) A with
 * 90%-sparse compressed B. Only the microsim and format layers run;
 * the dense-B and compressed-B steady states use the datapath
 * differently. The seed draws the operand values.
 */

#include <algorithm>
#include <iostream>
#include <memory>

#include "common/random.hh"
#include "format/hierarchical_cp.hh"
#include "format/operand_b.hh"
#include "fingerprint.hh"
#include "microsim/simulator.hh"
#include "runtime/thread_pool.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"
#include "trace.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace highlight;

constexpr std::int64_t kM = 32, kK = 1024, kN = 128;

/**
 * Max |error| of a simulated output against referenceGemm. The
 * simulator accumulates each output in a different order than the
 * dense reference, so float rounding differs; K = 1024 products of
 * N(0, 1) values stay far inside this bound.
 */
constexpr double kGemmTolerance = 1e-3;

MicrosimConfig
compressedB()
{
    MicrosimConfig cfg;
    cfg.compress_b = true;
    return cfg;
}

struct SimCase
{
    const DenseTensor *a;
    const HssSpec *spec;
    const DenseTensor *b;
    bool compress_b;
};

class MicrosimFig16 final : public Workload
{
  public:
    MicrosimFig16()
        : two_rank_({GhPattern(2, 4), GhPattern(4, 8)}),
          one_rank_({GhPattern(2, 4)}), sparse_b_sim_(compressedB())
    {
    }

    void
    setup(std::uint64_t seed) override
    {
        Rng rng(seed);
        const TensorShape a_shape({{"M", kM}, {"K", kK}});
        const TensorShape b_shape({{"K", kK}, {"N", kN}});
        a_two_rank_ = hssSparsify(randomDense(a_shape, rng), two_rank_);
        b_dense_ = randomDense(b_shape, rng);
        b_65_ = randomUnstructured(b_shape, 0.65, rng);
        a_one_rank_ = hssSparsify(randomDense(a_shape, rng), one_rank_);
        b_90_ = randomUnstructured(b_shape, 0.90, rng);
        cases_ = {{&a_two_rank_, &two_rank_, &b_dense_, false},
                  {&a_two_rank_, &two_rank_, &b_65_, true},
                  {&a_one_rank_, &one_rank_, &b_90_, true}};
    }

    /** The ungrouped (group_rows = 1) run on a 1-thread pool. */
    bool
    buildReference(std::string *fingerprint) override
    {
        ThreadPool &pool = ThreadPool::global();
        const int threads = pool.numThreads();
        ThreadPool::setGlobalThreads(1);
        std::vector<SimResult> ref;
        for (const SimCase &c : cases_) {
            MicrosimConfig cfg;
            cfg.compress_b = c.compress_b;
            cfg.group_rows = 1;
            ref.push_back(HighlightSimulator(cfg).run(*c.a, *c.spec, *c.b));
        }
        ThreadPool::setGlobalThreads(threads);

        bool ok = true;
        for (std::size_t i = 0; i < cases_.size(); ++i) {
            const double err =
                ref[i].output.maxAbsDiff(referenceGemm(*cases_[i].a,
                                                       *cases_[i].b));
            if (!(err <= kGemmTolerance)) {
                std::cerr << "microsim_fig16: run " << i
                          << " differs from referenceGemm by " << err
                          << " (tolerance " << kGemmTolerance << ")\n";
                ok = false;
            }
        }
        *fingerprint = fingerprintOf(ref);
        return ok;
    }

    void
    runOp(bool traced) override
    {
        last_.clear();
        if (!traced) {
            for (const SimCase &c : cases_) {
                const HighlightSimulator &sim =
                    c.compress_b ? sparse_b_sim_ : dense_b_sim_;
                last_.push_back(sim.run(*c.a, *c.spec, *c.b));
            }
            return;
        }
        spans_ = OpSpans{};
        const std::int64_t t0 = nowNs();
        for (const SimCase &c : cases_)
            last_.push_back(tracedRun(c));
        spans_.op = nowNs() - t0;
        spans_.groups = log_.take();
    }

    std::string
    lastFingerprint() const override
    {
        return fingerprintOf(last_);
    }

    LayerSample
    lastLayers() const override
    {
        const std::int64_t steady = spans_.steady_dense + spans_.steady_sparse;
        const std::int64_t serial =
            spans_.build_b + spans_.compress_b + spans_.fold;
        std::int64_t cycles = 0;
        for (const SimResult &r : last_)
            cycles += r.stats.cycles;

        LayerSample s;
        s["format.compress_a_ms"] = nsToMs(spans_.compress_a);
        s["format.compress_b_ms"] = nsToMs(spans_.compress_b);
        s["microsim.build_b_stream_ms"] = nsToMs(spans_.build_b);
        s["microsim.fold_ms"] = nsToMs(spans_.fold);
        s["microsim.serial_prefix_share"] =
            static_cast<double>(serial) / static_cast<double>(spans_.op);
        s["microsim.steady_dense_b_ms"] = nsToMs(spans_.steady_dense);
        s["microsim.steady_sparse_b_ms"] = nsToMs(spans_.steady_sparse);
        s["microsim.steady_parallelism"] =
            static_cast<double>(busyNs(spans_.groups)) /
            static_cast<double>(steady);
        s["microsim.sim_cycles"] = static_cast<double>(cycles);
        s["microsim.host_ns_per_sim_cycle"] =
            static_cast<double>(steady) / static_cast<double>(cycles);
        s[kPathMs] = nsToMs(spans_.compress_a + serial + steady);
        return s;
    }

    void
    corruptLast() override
    {
        flipLowBit(last_.front().output.data().front());
    }

  private:
    struct OpSpans
    {
        std::int64_t op = 0;
        std::int64_t compress_a = 0, build_b = 0, compress_b = 0;
        std::int64_t steady_dense = 0, steady_sparse = 0, fold = 0;
        std::vector<Interval> groups; ///< One span per row group.
    };

    /**
     * HighlightSimulator::run recomposed from its public phases, each
     * timed: compress A, build the ordered B stream, compress B, the
     * row-group steady state over parallelForGroups, fold the stats.
     * Geometry and the auto VFMU capacity follow run() exactly.
     */
    SimResult
    tracedRun(const SimCase &c)
    {
        const DenseTensor &a = *c.a;
        const HssSpec &spec = *c.spec;
        const std::int64_t m = a.shape().dim(0).extent;
        const std::int64_t k = a.shape().dim(1).extent;
        const std::int64_t n = c.b->shape().dim(1).extent;
        const int g0 = spec.rank(0).g;
        const int h0 = spec.rank(0).h;
        const bool two_rank = spec.numRanks() > 1;
        const int g1 = two_rank ? spec.rank(1).g : 1;
        const int h1 = two_rank ? spec.rank(1).h : 1;
        const std::int64_t set_span = static_cast<std::int64_t>(h0) * h1;
        const MicrosimConfig cfg;
        const int vfmu_cap = std::max(
            {2 * h1 * h0, 2 * cfg.glb_row_words,
             static_cast<int>(set_span) + cfg.glb_row_words});

        const std::int64_t t0 = nowNs();
        const HierarchicalCpMatrix a_cp(a, spec);
        const std::int64_t t1 = nowNs();
        std::vector<float> stream = buildOrderedBStream(*c.b, set_span);
        const std::int64_t t2 = nowNs();
        std::unique_ptr<OperandBStream> b_comp;
        if (c.compress_b) {
            b_comp = std::make_unique<OperandBStream>(
                stream.data(), static_cast<std::int64_t>(stream.size()),
                h0, h1);
            std::vector<float>().swap(stream);
        }
        const std::int64_t t3 = nowNs();

        SimContext ctx;
        ctx.a_cp = &a_cp;
        ctx.b_comp = b_comp.get();
        ctx.stream = b_comp ? b_comp->valuesData() : stream.data();
        ctx.stream_len = b_comp ? b_comp->dataWords()
                                : static_cast<std::int64_t>(stream.size());
        ctx.glb_row_words = cfg.glb_row_words;
        ctx.vfmu_capacity = vfmu_cap;
        ctx.g0 = g0;
        ctx.h0 = h0;
        ctx.g1 = g1;
        ctx.h1 = h1;
        ctx.two_rank = two_rank;
        ctx.groups = k / set_span;
        ctx.n = n;
        SimResult result{DenseTensor(TensorShape({{"M", m}, {"N", n}})), {}};

        const std::int64_t group = std::min<std::int64_t>(
            m, MicrosimConfig::kDefaultGroupRows);
        ThreadPool &pool = ThreadPool::global();
        const auto num_workers = static_cast<std::size_t>(
            std::min<std::int64_t>((m + group - 1) / group,
                                   pool.numThreads()));
        WorkerSlots<RowGroupWorker> workers(num_workers, [&](std::size_t) {
            return std::make_unique<RowGroupWorker>(
                ctx, static_cast<int>(group));
        });
        pool.parallelForGroups(
            static_cast<std::size_t>(m), static_cast<std::size_t>(group),
            [&](std::size_t begin, std::size_t end) {
                const std::int64_t g_begin = nowNs();
                auto worker = workers.acquire();
                worker->runGroup(static_cast<std::int64_t>(begin),
                                 static_cast<int>(end - begin),
                                 result.output);
                log_.record(g_begin, nowNs());
            });
        const std::int64_t t4 = nowNs();
        for (std::size_t w = 0; w < workers.size(); ++w)
            result.stats.accumulate(workers.slot(w).stats());
        const std::int64_t t5 = nowNs();

        spans_.compress_a += t1 - t0;
        spans_.build_b += t2 - t1;
        spans_.compress_b += t3 - t2;
        (c.compress_b ? spans_.steady_sparse : spans_.steady_dense) +=
            t4 - t3;
        spans_.fold += t5 - t4;
        return result;
    }

    static std::string
    fingerprintOf(const std::vector<SimResult> &results)
    {
        Fingerprint f;
        for (const auto &r : results)
            f.add(r);
        return f.bytes();
    }

    const HssSpec two_rank_; ///< C1(4:8)->C0(2:4).
    const HssSpec one_rank_; ///< C0(2:4).
    const HighlightSimulator dense_b_sim_;
    const HighlightSimulator sparse_b_sim_;
    SpanLog log_;

    DenseTensor a_two_rank_, a_one_rank_, b_dense_, b_65_, b_90_;
    std::vector<SimCase> cases_;

    std::vector<SimResult> last_;
    OpSpans spans_;
};

} // namespace

std::unique_ptr<Workload>
makeMicrosimFig16()
{
    return std::make_unique<MicrosimFig16>();
}

} // namespace perfbench
