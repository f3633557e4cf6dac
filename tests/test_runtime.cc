/**
 * @file
 * Unit tests for the runtime: the thread pool's determinism, exception
 * safety and lazy start; the dedupe key (equal exactly when the former
 * text keys were); DSTC's per-thread memo staying invisible on a fresh
 * thread; evaluateBatch's dedupe, counted in evaluate() calls; the
 * analytical path starting no pool thread; and — the load-bearing
 * guarantee — bit-identical results at 1 and 4 threads for runDnn,
 * rankAblation, the Pareto frontier, and per-job-seeded microsim
 * fidelity runs. evaluateBatch's error and concurrency contracts are
 * in test_async.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "accel/harness.hh"
#include "common/random.hh"
#include "core/evaluator.hh"
#include "core/explorer.hh"
#include "core/pareto.hh"
#include "dnn/deit.hh"
#include "dnn/resnet50.hh"
#include "dnn/transformer.hh"
#include "microsim/simulator.hh"
#include "runtime/batch_runner.hh"
#include "runtime/thread_pool.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"

namespace highlight
{
namespace
{

/** Restores the global pool to default resolution on scope exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard() { ThreadPool::setGlobalThreads(0); }
};

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4);
    std::vector<std::atomic<int>> counts(1000);
    pool.parallelFor(counts.size(),
                     [&](std::size_t i) { counts[i].fetch_add(1); });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, SerialFallbackRunsInline)
{
    ThreadPool pool(1);
    std::vector<int> order;
    pool.parallelFor(5, [&](std::size_t i) {
        order.push_back(static_cast<int>(i)); // safe: inline, in order
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ExceptionIsRethrownAndPoolSurvives)
{
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        EXPECT_THROW(
            pool.parallelFor(64,
                             [&](std::size_t i) {
                                 if (i % 7 == 3)
                                     throw std::runtime_error("boom");
                             }),
            std::runtime_error);
        // The pool must stay fully usable after a failed job.
        std::atomic<int> sum{0};
        pool.parallelFor(100, [&](std::size_t i) {
            sum.fetch_add(static_cast<int>(i));
        });
        EXPECT_EQ(sum.load(), 4950);
    }
    // Destructor (shutdown) after exceptions must join cleanly; the
    // scope exit exercises it.
}

TEST(ThreadPool, EnvOverrideControlsDefaultThreadCount)
{
    // Save and restore any ambient override (CI runs the whole suite
    // under HIGHLIGHT_THREADS=8; this test must not strip it).
    const char *prev = std::getenv("HIGHLIGHT_THREADS");
    const std::string saved = prev ? prev : "";

    ASSERT_EQ(setenv("HIGHLIGHT_THREADS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3);
    ASSERT_EQ(setenv("HIGHLIGHT_THREADS", "0", 1), 0);
    EXPECT_THROW(ThreadPool::defaultThreadCount(), FatalError);
    ASSERT_EQ(unsetenv("HIGHLIGHT_THREADS"), 0);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1);

    if (prev)
        ASSERT_EQ(setenv("HIGHLIGHT_THREADS", saved.c_str(), 1), 0);
}

/**
 * This process's thread count, from the `Threads:` line of
 * /proc/self/status; -1 where that cannot be read. Reads until two
 * reads 1 ms apart agree, so a thread joined just before has left the
 * count.
 */
int
processThreadCount()
{
    const auto readOnce = [] {
        std::ifstream status("/proc/self/status");
        std::string line;
        while (std::getline(status, line)) {
            if (line.rfind("Threads:", 0) == 0)
                return std::stoi(line.substr(8));
        }
        return -1;
    };
    int count = readOnce();
    for (int tries = 0; count >= 0 && tries < 100; ++tries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const int again = readOnce();
        if (again == count)
            break;
        count = again;
    }
    return count;
}

/**
 * The thread count before a check. A sanitizer runtime may start a
 * helper thread along with the process's first thread, so one thread
 * is started and joined first.
 */
int
baselineThreadCount()
{
    std::thread([] {}).join();
    return processThreadCount();
}

TEST(ThreadPool, StartsNoThreadBeforeItsFirstParallelJob)
{
    const int before = baselineThreadCount();
    if (before < 0)
        GTEST_SKIP() << "no Threads: line in /proc/self/status";
    ThreadPool pool(4);
    EXPECT_EQ(processThreadCount(), before);
    // One item runs inline on the caller.
    pool.parallelFor(1, [](std::size_t) {});
    EXPECT_EQ(processThreadCount(), before);

    std::vector<std::atomic<int>> counts(2);
    pool.parallelFor(counts.size(),
                     [&](std::size_t i) { counts[i].fetch_add(1); });
    EXPECT_EQ(counts[0].load() + counts[1].load(), 2);
    EXPECT_EQ(processThreadCount(), before + 3);
    // The workers start once.
    pool.parallelFor(64, [](std::size_t) {});
    EXPECT_EQ(processThreadCount(), before + 3);
}

TEST(EvalKey, KeyIgnoresNameButNotShapeOrSparsity)
{
    GemmWorkload w;
    w.name = "a";
    w.m = w.k = w.n = 64;
    w.a = OperandSparsity::dense();
    w.b = OperandSparsity::unstructured(0.5);

    GemmWorkload renamed = w;
    renamed.name = "b";
    EXPECT_EQ(keyOf("TC", w), keyOf("TC", renamed));
    EXPECT_NE(keyOf("TC", w), keyOf("STC", w));

    GemmWorkload reshaped = w;
    reshaped.m = 65;
    EXPECT_NE(keyOf("TC", w), keyOf("TC", reshaped));

    GemmWorkload denser = w;
    denser.b = OperandSparsity::unstructured(0.5000000001);
    EXPECT_NE(keyOf("TC", w), keyOf("TC", denser));
}

/**
 * The dedupe key's former text form, kept here as the reference for
 * key equality: the design, then "|MxKxN|", then per operand 'D', 'U'
 * plus the density as printf's "%.17g" (max_digits10, so distinct
 * densities never print alike), or 'H' plus HssSpec::str(), with the
 * two operands separated by '|'.
 */
std::string
textKeyOf(const std::string &design, const GemmWorkload &w)
{
    const auto operand = [](const OperandSparsity &s) -> std::string {
        switch (s.kind) {
          case PatternKind::Dense:
            return "D";
          case PatternKind::Unstructured: {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "U%.17g", s.density);
            return buf;
          }
          case PatternKind::Hss:
            return "H" + s.hss.str();
        }
        return "?";
    };
    return design + "|" + std::to_string(w.m) + "x" +
           std::to_string(w.k) + "x" + std::to_string(w.n) + "|" +
           operand(w.a) + "|" + operand(w.b);
}

/** A dedupe key's inputs: a design name and a workload. */
struct KeyedJob
{
    std::string design;
    GemmWorkload workload;
};

/** fig15's sweep: 3 DNNs x 16 co-design candidates, 4,544 layer jobs. */
std::vector<KeyedJob>
fig15Jobs()
{
    const Evaluator ev;
    std::vector<KeyedJob> jobs;
    for (const DnnModel &model :
         {resnet50Model(), transformerBigModel(), deitSmallModel()}) {
        for (const DnnScenario &c : fig15Candidates()) {
            for (auto &w : ev.buildDnnWorkloads(model, c))
                jobs.push_back({c.design, std::move(w)});
        }
    }
    return jobs;
}

/**
 * `count` GEMMs shaped like perfbench's gemm_matrix: M, K and N in
 * multiples of 64 up to 4096, A unstructured or the nearest HighLight
 * HSS pattern, B unstructured, densities drawn from [0.1, 1).
 */
std::vector<GemmWorkload>
seededGemms(std::uint64_t seed, int count)
{
    Rng rng(seed);
    const auto hss_support = highlightWeightSupport();
    std::vector<GemmWorkload> out;
    for (int i = 0; i < count; ++i) {
        GemmWorkload w;
        w.name = "gemm" + std::to_string(i);
        w.m = 64 * rng.uniformInt(1, 64);
        w.k = 64 * rng.uniformInt(1, 64);
        w.n = 64 * rng.uniformInt(1, 64);
        const double a_density = rng.uniform(0.1, 1.0);
        w.a = rng.bernoulli(0.5)
                  ? OperandSparsity::unstructured(a_density)
                  : OperandSparsity::structured(
                        chooseSpecForDensity(hss_support, a_density));
        w.b = OperandSparsity::unstructured(rng.uniform(0.1, 1.0));
        out.push_back(std::move(w));
    }
    return out;
}

TEST(EvalKey, TextKeyReferenceReproducesTheFormerFormat)
{
    GemmWorkload w;
    w.m = 64;
    w.k = 128;
    w.n = 4096;
    EXPECT_EQ(textKeyOf("TC", w), "TC|64x128x4096|D|D");
    w.b = OperandSparsity::unstructured(0.1);
    EXPECT_EQ(textKeyOf("DSTC", w),
              "DSTC|64x128x4096|D|U0.10000000000000001");
    w.a = OperandSparsity::structured(
        HssSpec({GhPattern(2, 4), GhPattern(4, 8)}));
    w.b = OperandSparsity::unstructured(2.0 / 3.0);
    EXPECT_EQ(textKeyOf("HighLight", w),
              "HighLight|64x128x4096|HC1(4:8)->C0(2:4)|"
              "U0.66666666666666663");
}

TEST(EvalKey, KeyEqualityMatchesTheTextReference)
{
    // Over fig15's jobs, 6 designs x 128 gemm_matrix-shaped GEMMs and
    // a set of edge pairs, two keys are equal exactly when their text
    // reference keys are: the binary key neither merges nor splits a
    // dedupe class.
    std::vector<KeyedJob> corpus = fig15Jobs();
    ASSERT_EQ(corpus.size(), 4544u);
    std::set<std::string> fig15_keys, fig15_text_keys;
    for (const KeyedJob &j : corpus) {
        fig15_keys.insert(keyOf(j.design, j.workload));
        fig15_text_keys.insert(textKeyOf(j.design, j.workload));
    }
    EXPECT_EQ(fig15_keys.size(), 466u);
    EXPECT_EQ(fig15_text_keys.size(), 466u);

    const Evaluator ev;
    const auto gemms = seededGemms(1, 128);
    for (const Accelerator *d : ev.designs()) {
        for (const GemmWorkload &w : gemms)
            corpus.push_back({d->name(), w});
    }

    // Edge pairs, each with whether its two keys must be equal.
    GemmWorkload base;
    base.m = 64;
    base.k = 128;
    base.n = 256;
    const auto with = [&](OperandSparsity a, OperandSparsity b) {
        GemmWorkload w = base;
        w.a = std::move(a);
        w.b = std::move(b);
        return w;
    };
    const auto hss = [](std::vector<GhPattern> ranks) {
        return OperandSparsity::structured(HssSpec(std::move(ranks)));
    };
    OperandSparsity odd_dense = OperandSparsity::dense();
    odd_dense.density = 0.5;
    const OperandSparsity u = OperandSparsity::unstructured(0.5);
    // A density whose bytes read as a rank-1 G = 1, H = 8 followed by
    // a dense operand's kind byte: only the rank count keeps a
    // one-rank A with this B apart from a two-rank A with a dense B.
    const std::uint64_t rank_bits = std::uint64_t{8} << 24;
    double rank_like = 0.0;
    std::memcpy(&rank_like, &rank_bits, sizeof(rank_like));
    const struct
    {
        KeyedJob x, y;
        bool same;
    } edges[] = {
        {{"DSTC", with(u, u)},
         {"DSTC",
          with(u, OperandSparsity::unstructured(std::nextafter(0.5, 1.0)))},
         false},
        {{"HighLight", with(hss({GhPattern(2, 4)}), u)},
         {"HighLight", with(hss({GhPattern(4, 8)}), u)},
         false},
        {{"HighLight", with(hss({GhPattern(2, 4), GhPattern(4, 8)}), u)},
         {"HighLight", with(hss({GhPattern(4, 8), GhPattern(2, 4)}), u)},
         false},
        {{"TC", with(OperandSparsity::dense(), u)},
         {"TC", with(odd_dense, u)},
         true},
        {{"DS", with(u, u)}, {"DSTC", with(u, u)}, false},
        {{"HighLight", with(hss({GhPattern(2, 4)}),
                            OperandSparsity::unstructured(rank_like))},
         {"HighLight", with(hss({GhPattern(2, 4), GhPattern(1, 8)}),
                            OperandSparsity::dense())},
         false},
    };
    for (const auto &e : edges) {
        EXPECT_EQ(textKeyOf(e.x.design, e.x.workload) ==
                      textKeyOf(e.y.design, e.y.workload),
                  e.same)
            << textKeyOf(e.x.design, e.x.workload);
        EXPECT_EQ(keyOf(e.x.design, e.x.workload) ==
                      keyOf(e.y.design, e.y.workload),
                  e.same)
            << textKeyOf(e.x.design, e.x.workload);
        corpus.push_back(e.x);
        corpus.push_back(e.y);
    }

    // Equal text keys map to one binary key and vice versa, so the
    // two partition the corpus into the same classes.
    std::map<std::string, std::string> binary_of_text, text_of_binary;
    for (const KeyedJob &j : corpus) {
        const std::string text = textKeyOf(j.design, j.workload);
        const std::string binary = keyOf(j.design, j.workload);
        EXPECT_EQ(binary_of_text.emplace(text, binary).first->second,
                  binary)
            << text;
        EXPECT_EQ(text_of_binary.emplace(binary, text).first->second,
                  text)
            << text;
    }
    EXPECT_EQ(binary_of_text.size(), text_of_binary.size());
}

/** Every field of two results, doubles compared by their bits. */
void
expectResultBitIdentical(const EvalResult &a, const EvalResult &b)
{
    const auto bits = [](double v) {
        std::uint64_t out = 0;
        std::memcpy(&out, &v, sizeof(out));
        return out;
    };
    EXPECT_EQ(a.design, b.design);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.supported, b.supported);
    EXPECT_EQ(a.note, b.note);
    EXPECT_EQ(bits(a.cycles), bits(b.cycles)) << a.workload;
    EXPECT_EQ(bits(a.clock_mhz), bits(b.clock_mhz));
    const auto expectSame = [&](const std::vector<BreakdownEntry> &ea,
                                const std::vector<BreakdownEntry> &eb) {
        ASSERT_EQ(ea.size(), eb.size());
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].name, eb[i].name);
            EXPECT_EQ(bits(ea[i].value), bits(eb[i].value))
                << a.workload << " " << ea[i].name;
        }
    };
    expectSame(a.energy_pj, b.energy_pj);
    expectSame(a.area_um2, b.area_um2);
}

TEST(EvaluateBest, DstcIsBitIdenticalOnColdAndWarmThreads)
{
    // A fresh thread starts with an empty utilization memo and lgamma
    // table; this thread evaluates the same jobs twice, the second
    // time against a warm memo. Neither may show in any result.
    const Evaluator ev;
    const Accelerator &dstc = ev.design("DSTC");
    const auto gemms = seededGemms(1, 128);
    const auto evaluateAll = [&] {
        std::vector<EvalResult> out;
        for (const GemmWorkload &w : gemms)
            out.push_back(evaluateBest(dstc, w));
        return out;
    };
    std::vector<EvalResult> cold;
    std::thread fresh([&] { cold = evaluateAll(); });
    fresh.join();
    const auto first = evaluateAll();
    const auto warm = evaluateAll();
    ASSERT_EQ(cold.size(), gemms.size());
    for (std::size_t i = 0; i < gemms.size(); ++i) {
        expectResultBitIdentical(cold[i], warm[i]);
        expectResultBitIdentical(first[i], warm[i]);
    }
}

/** A design that forwards to `inner` and counts its evaluate() calls. */
class CountingAccel final : public Accelerator
{
  public:
    explicit CountingAccel(const Accelerator &inner)
        : Accelerator(inner.arch(), inner.lib()), inner_(inner)
    {
    }

    std::string
    supportedPatternsA() const override
    {
        return inner_.supportedPatternsA();
    }
    std::string
    supportedPatternsB() const override
    {
        return inner_.supportedPatternsB();
    }
    bool
    supports(const GemmWorkload &w) const override
    {
        return inner_.supports(w);
    }
    EvalResult
    evaluate(const GemmWorkload &w) const override
    {
        calls_.fetch_add(1);
        return inner_.evaluate(w);
    }
    std::vector<BreakdownEntry>
    areaBreakdown() const override
    {
        return inner_.areaBreakdown();
    }

    int calls() const { return calls_.load(); }

  private:
    const Accelerator &inner_;
    mutable std::atomic<int> calls_{0};
};

TEST(EvaluateBatch, DedupesWithinBatchDeterministically)
{
    const Evaluator ev;
    const CountingAccel tc(ev.design("TC"));

    GemmWorkload w;
    w.m = w.k = w.n = 256;
    // One evaluateBest: TC tries both operand orders.
    const EvalResult single = evaluateBest(tc, w);
    const int per_job = tc.calls();
    ASSERT_GT(per_job, 0);

    std::vector<EvalJob> jobs;
    for (int i = 0; i < 6; ++i) {
        w.name = "copy-" + std::to_string(i);
        jobs.push_back({&tc, w});
    }
    const auto results = evaluateBatch(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    // Six copies of one job cost one evaluation.
    EXPECT_EQ(tc.calls(), 2 * per_job);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EvalResult expected = single;
        expected.workload = jobs[i].workload.name;
        expectResultBitIdentical(results[i], expected);
    }
}

TEST(EvaluateBatch, DedupesRepeatedLayerShapesInEachCall)
{
    const Evaluator ev;
    const CountingAccel hl(ev.design("HighLight"));
    const auto model = resnet50Model();
    const DnnScenario sc{"HighLight", PruningApproach::Hss, 0.75};

    // runDnn's batch, with the counting design in place of its own.
    std::vector<EvalJob> jobs;
    for (auto &w : ev.buildDnnWorkloads(model, sc))
        jobs.push_back({&hl, std::move(w)});
    ASSERT_EQ(jobs.size(), model.layers.size());
    for (const EvalJob &job : jobs)
        evaluateBest(hl, job.workload);
    const int every_layer = hl.calls();

    const auto first = ev.runBatch(jobs);
    const int per_batch = hl.calls() - every_layer;
    // ResNet-50 repeats layer shapes across residual stages.
    EXPECT_GT(per_batch, 0);
    EXPECT_LT(per_batch, every_layer);
    EXPECT_LT(per_batch, static_cast<int>(model.layers.size()));

    // Nothing is kept between calls: a second batch evaluates again.
    const auto second = ev.runBatch(jobs);
    EXPECT_EQ(hl.calls() - every_layer, 2 * per_batch);
    const auto dnn = ev.runDnn(model, DnnName::ResNet50, sc);
    ASSERT_EQ(first.size(), jobs.size());
    ASSERT_EQ(dnn.per_layer.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expectResultBitIdentical(first[i], second[i]);
        expectResultBitIdentical(first[i], dnn.per_layer[i]);
    }
}

/** Full comparison of two DNN eval results, bit-exact. */
void
expectDnnBitIdentical(const DnnEvalResult &a, const DnnEvalResult &b)
{
    EXPECT_EQ(a.supported, b.supported);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.total_energy_pj, b.total_energy_pj);
    EXPECT_EQ(a.accuracy_loss, b.accuracy_loss);
    ASSERT_EQ(a.per_layer.size(), b.per_layer.size());
    for (std::size_t i = 0; i < a.per_layer.size(); ++i) {
        EXPECT_EQ(a.per_layer[i].workload, b.per_layer[i].workload);
        EXPECT_EQ(a.per_layer[i].cycles, b.per_layer[i].cycles);
        EXPECT_EQ(a.per_layer[i].totalEnergyPj(),
                  b.per_layer[i].totalEnergyPj());
    }
}

TEST(ParallelEquivalence, RunDnnIsBitIdenticalAcrossThreadCounts)
{
    GlobalPoolGuard guard;
    const DnnScenario scenarios[] = {
        {"HighLight", PruningApproach::Hss, 0.75},
        {"DSTC", PruningApproach::Unstructured, 0.8},
        {"TC", PruningApproach::Dense, 0.0},
    };
    const auto model = resnet50Model();
    for (const auto &sc : scenarios) {
        ThreadPool::setGlobalThreads(1);
        const Evaluator serial_ev;
        const auto serial =
            serial_ev.runDnn(model, DnnName::ResNet50, sc);

        ThreadPool::setGlobalThreads(4);
        const Evaluator parallel_ev;
        const auto parallel =
            parallel_ev.runDnn(model, DnnName::ResNet50, sc);

        expectDnnBitIdentical(serial, parallel);
    }
}

TEST(ParallelEquivalence, RunDnnUnsupportedMatchesSerialNote)
{
    GlobalPoolGuard guard;
    // S2TA cannot run Transformer-Big's dense attention GEMMs; the
    // parallel path must report the first failing layer in layer
    // order, exactly like the serial early-exit did.
    const DnnScenario sc{"S2TA", PruningApproach::OneRankGh, 0.5};
    const auto model = transformerBigModel();

    ThreadPool::setGlobalThreads(1);
    const auto serial =
        Evaluator().runDnn(model, DnnName::TransformerBig, sc);
    ThreadPool::setGlobalThreads(4);
    const auto parallel =
        Evaluator().runDnn(model, DnnName::TransformerBig, sc);

    EXPECT_FALSE(serial.supported);
    EXPECT_FALSE(parallel.supported);
    EXPECT_EQ(serial.note, parallel.note);
}

TEST(ParallelEquivalence, RankAblationIsBitIdenticalAcrossThreadCounts)
{
    GlobalPoolGuard guard;
    const DesignSpaceExplorer explorer;

    ThreadPool::setGlobalThreads(1);
    const auto serial = explorer.rankAblation(10, 0.25);
    ThreadPool::setGlobalThreads(4);
    const auto parallel = explorer.rankAblation(10, 0.25);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].name, parallel[i].name);
        EXPECT_EQ(serial[i].hmax_per_rank, parallel[i].hmax_per_rank);
        EXPECT_EQ(serial[i].total_mux2, parallel[i].total_mux2);
        EXPECT_EQ(serial[i].mux_area_um2, parallel[i].mux_area_um2);
        ASSERT_EQ(serial[i].degrees.size(), parallel[i].degrees.size());
        for (std::size_t d = 0; d < serial[i].degrees.size(); ++d)
            EXPECT_EQ(serial[i].degrees[d].density,
                      parallel[i].degrees[d].density);
    }
}

TEST(ParallelEquivalence, FrontierMaskIsThreadCountIndependent)
{
    GlobalPoolGuard guard;
    Rng rng(42);
    std::vector<ParetoPoint> points;
    for (int i = 0; i < 600; ++i)
        points.push_back({rng.uniform(), rng.uniform(), ""});

    ThreadPool::setGlobalThreads(1);
    const auto serial = frontierMask(points);
    ThreadPool::setGlobalThreads(4);
    const auto parallel = frontierMask(points);
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelEquivalence, MicrosimPerJobSeedsAreThreadCountIndependent)
{
    GlobalPoolGuard guard;
    // Microsim fidelity runs fan out with a per-job Rng derived from
    // the base seed, so the generated operands — and therefore the
    // simulated stats — cannot depend on scheduling.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 3)});
    const std::uint64_t base_seed = 1000;
    const auto simulate = [&](std::size_t job) {
        Rng rng(base_seed + job); // derived per job, never shared
        const std::int64_t m = 2, k = 24, n = 3;
        const auto a = hssSparsify(
            randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
        const auto b =
            randomDense(TensorShape({{"K", k}, {"N", n}}), rng);
        return HighlightSimulator(MicrosimConfig()).run(a, spec, b);
    };

    const auto simulateAll = [&] {
        std::vector<SimResult> out(6);
        ThreadPool::global().parallelFor(
            out.size(), [&](std::size_t job) { out[job] = simulate(job); });
        return out;
    };

    ThreadPool::setGlobalThreads(1);
    const auto serial = simulateAll();
    ThreadPool::setGlobalThreads(4);
    const auto parallel = simulateAll();

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].output.maxAbsDiff(parallel[i].output), 0.0);
        EXPECT_EQ(serial[i].stats.cycles, parallel[i].stats.cycles);
        EXPECT_EQ(serial[i].stats.psum_updates,
                  parallel[i].stats.psum_updates);
        EXPECT_EQ(serial[i].stats.vfmu.shifts,
                  parallel[i].stats.vfmu.shifts);
    }
}

TEST(Evaluator, AnalyticalPathStartsNoPoolThread)
{
    GlobalPoolGuard guard;
    ThreadPool::setGlobalThreads(1);
    const int before = baselineThreadCount();
    if (before < 0)
        GTEST_SKIP() << "no Threads: line in /proc/self/status";
    ThreadPool::setGlobalThreads(4);

    const Evaluator ev;
    const auto dnn =
        ev.runDnn(resnet50Model(), DnnName::ResNet50,
                  {"HighLight", PruningApproach::Hss, 0.75});
    EXPECT_TRUE(dnn.supported);
    std::vector<EvalJob> jobs;
    for (const Accelerator *d : ev.standardLineup()) {
        for (const GemmWorkload &w : seededGemms(3, 8))
            jobs.push_back({d, w});
    }
    EXPECT_EQ(ev.runBatch(jobs).size(), jobs.size());
    const DesignSpaceExplorer explorer;
    EXPECT_FALSE(explorer.rankAblation(10, 0.25).empty());
    EXPECT_EQ(explorer.analyzeMany({DesignSpaceExplorer::designS(),
                                    DesignSpaceExplorer::designSS()})
                  .size(),
              2u);
    Rng rng(42);
    std::vector<ParetoPoint> points;
    for (int i = 0; i < 600; ++i)
        points.push_back({rng.uniform(), rng.uniform(), ""});
    EXPECT_EQ(frontierMask(points).size(), points.size());
    EXPECT_EQ(processThreadCount(), before);

    // The microsim does use the pool: four one-row groups start its
    // three workers.
    const HssSpec spec({GhPattern(2, 4)});
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", 4}, {"K", 8}}), rng), spec);
    const auto b = randomDense(TensorShape({{"K", 8}, {"N", 2}}), rng);
    MicrosimConfig config;
    config.group_rows = 1;
    HighlightSimulator(config).run(a, spec, b);
    EXPECT_EQ(processThreadCount(), before + 3);
}

} // namespace
} // namespace highlight
