/**
 * @file
 * Unit tests for the parallel evaluation runtime: the thread pool's
 * determinism and exception safety, the eval cache's keying (equal
 * exactly when the former text keys were) and hit/miss accounting,
 * DSTC's per-thread memo staying invisible on a fresh thread,
 * evaluateBatch's dedupe, and — the load-bearing
 * guarantee — bit-identical results between the serial fallback and
 * the N-thread path for runDnn, rankAblation, the Pareto frontier, and
 * per-job-seeded microsim fidelity runs. evaluateBatch's error and
 * concurrency contracts are in test_async.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
#include "runtime/eval_cache.hh"
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

TEST(ThreadPool, ParallelMapIsPositional)
{
    ThreadPool pool(3);
    const auto out = pool.parallelMap(
        std::size_t{257}, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
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
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1); // ignored, falls back
    ASSERT_EQ(unsetenv("HIGHLIGHT_THREADS"), 0);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1);

    if (prev)
        ASSERT_EQ(setenv("HIGHLIGHT_THREADS", saved.c_str(), 1), 0);
}

TEST(EvalCache, KeyIgnoresNameButNotShapeOrSparsity)
{
    GemmWorkload w;
    w.name = "a";
    w.m = w.k = w.n = 64;
    w.a = OperandSparsity::dense();
    w.b = OperandSparsity::unstructured(0.5);

    GemmWorkload renamed = w;
    renamed.name = "b";
    EXPECT_EQ(EvalCache::keyOf("TC", w), EvalCache::keyOf("TC", renamed));
    EXPECT_NE(EvalCache::keyOf("TC", w), EvalCache::keyOf("STC", w));

    GemmWorkload reshaped = w;
    reshaped.m = 65;
    EXPECT_NE(EvalCache::keyOf("TC", w), EvalCache::keyOf("TC", reshaped));

    GemmWorkload denser = w;
    denser.b = OperandSparsity::unstructured(0.5000000001);
    EXPECT_NE(EvalCache::keyOf("TC", w), EvalCache::keyOf("TC", denser));
}

TEST(EvalCache, HitReturnsPatchedNameAndCounts)
{
    const Evaluator ev;
    EvalCache cache;
    const Accelerator &tc = ev.design("TC");

    GemmWorkload w;
    w.name = "first";
    w.m = w.k = w.n = 128;
    const auto r1 = cache.evaluate(tc, w);
    EXPECT_EQ(r1.workload, "first");
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);

    w.name = "second";
    const auto r2 = cache.evaluate(tc, w);
    EXPECT_EQ(r2.workload, "second");
    EXPECT_EQ(r2.cycles, r1.cycles);
    EXPECT_EQ(r2.totalEnergyPj(), r1.totalEnergyPj());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(EvalCache, StatsAreExactAndConsistent)
{
    const Evaluator ev;
    const Accelerator &tc = ev.design("TC");
    EvalCache cache;

    GemmWorkload w;
    w.name = "w";
    w.k = w.n = 64;
    w.a = OperandSparsity::dense();
    w.b = OperandSparsity::unstructured(0.5);
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 5; ++i) {
            w.m = 8 + i;
            cache.evaluate(tc, w);
        }
    }
    cache.noteHit();
    const auto s = cache.stats();
    EXPECT_EQ(s.misses, 5u);
    EXPECT_EQ(s.hits, 11u); // 2 warm rounds x 5 + noteHit
    EXPECT_EQ(s.lookups(), s.hits + s.misses);
    EXPECT_EQ(s.insertions, 5u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 11.0 / 16.0);
}

/**
 * The cache key's former text form, kept here as the reference for
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

/** A cache key's inputs: a design name and a workload. */
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

TEST(EvalCache, TextKeyReferenceReproducesTheFormerFormat)
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

TEST(EvalCache, KeyEqualityMatchesTheTextReference)
{
    // Over fig15's jobs, 6 designs x 128 gemm_matrix-shaped GEMMs and
    // a set of edge pairs, two keys are equal exactly when their text
    // reference keys are: the binary key neither merges nor splits a
    // dedupe class.
    std::vector<KeyedJob> corpus = fig15Jobs();
    ASSERT_EQ(corpus.size(), 4544u);
    std::set<std::string> fig15_keys, fig15_text_keys;
    for (const KeyedJob &j : corpus) {
        fig15_keys.insert(EvalCache::keyOf(j.design, j.workload));
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
        EXPECT_EQ(EvalCache::keyOf(e.x.design, e.x.workload) ==
                      EvalCache::keyOf(e.y.design, e.y.workload),
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
        const std::string binary = EvalCache::keyOf(j.design, j.workload);
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

TEST(EvalCache, DstcIsBitIdenticalOnColdAndWarmThreads)
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

TEST(EvaluateBatch, DedupesWithinBatchDeterministically)
{
    const Evaluator ev;
    const Accelerator &tc = ev.design("TC");

    GemmWorkload w;
    w.m = w.k = w.n = 256;
    std::vector<EvalJob> jobs;
    for (int i = 0; i < 6; ++i) {
        w.name = "copy-" + std::to_string(i);
        jobs.push_back({&tc, w});
    }

    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        EvalCache cache;
        const auto results = evaluateBatch(jobs, cache, pool);
        ASSERT_EQ(results.size(), jobs.size());
        // One compute, five in-batch hits — regardless of threads.
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_EQ(cache.stats().hits, 5u);
        EXPECT_EQ(cache.size(), 1u);
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(results[i].workload, jobs[i].workload.name);
            EXPECT_EQ(results[i].cycles, results[0].cycles);
        }
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
        // The hit/miss accounting is deterministic too.
        EXPECT_EQ(serial_ev.cacheStats().hits,
                  parallel_ev.cacheStats().hits);
        EXPECT_EQ(serial_ev.cacheStats().misses,
                  parallel_ev.cacheStats().misses);
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

TEST(ParallelEquivalence, CacheDedupesRepeatedLayerShapes)
{
    GlobalPoolGuard guard;
    ThreadPool::setGlobalThreads(4);
    const Evaluator ev;
    const auto model = resnet50Model();
    const DnnScenario sc{"HighLight", PruningApproach::Hss, 0.75};

    const auto first = ev.runDnn(model, DnnName::ResNet50, sc);
    const auto s1 = ev.cacheStats();
    // ResNet-50 repeats layer shapes across residual stages.
    EXPECT_GT(s1.hits, 0u);
    EXPECT_LT(s1.misses, model.layers.size());
    EXPECT_EQ(s1.hits + s1.misses, model.layers.size());

    // A repeat run is served entirely from the cache.
    const auto second = ev.runDnn(model, DnnName::ResNet50, sc);
    const auto s2 = ev.cacheStats();
    EXPECT_EQ(s2.misses, s1.misses);
    EXPECT_EQ(s2.hits, s1.hits + model.layers.size());
    expectDnnBitIdentical(first, second);
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
    // Enough points to cross the parallel-dispatch threshold.
    Rng rng(42);
    std::vector<ParetoPoint> points;
    for (int i = 0; i < 600; ++i)
        points.push_back({rng.uniform(), rng.uniform(), ""});

    ThreadPool::setGlobalThreads(1);
    const auto serial = frontierMask(points);
    ThreadPool::setGlobalThreads(4);
    const auto parallel = frontierMask(points);
    EXPECT_EQ(serial, parallel);

    // And the index list agrees with the mask.
    const auto frontier = paretoFrontier(points);
    for (std::size_t i : frontier)
        EXPECT_TRUE(parallel[i]);
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

    ThreadPool::setGlobalThreads(1);
    const auto serial =
        ThreadPool::global().parallelMap(std::size_t{6}, simulate);
    ThreadPool::setGlobalThreads(4);
    const auto parallel =
        ThreadPool::global().parallelMap(std::size_t{6}, simulate);

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

} // namespace
} // namespace highlight
