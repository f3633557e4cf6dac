/**
 * @file
 * Allocation accounting for the micro-simulator's steady-state loop.
 *
 * The binary replaces global operator new/delete with counting
 * versions, then asserts two properties of HighlightSimulator::run:
 *
 *  - the component hot paths (Vfmu::readShift into a caller buffer,
 *    MicroPe::loadBlock/step from pointers) make exactly zero
 *    allocations once constructed;
 *  - whole runs allocate a number of times that does not grow with the
 *    number of (group, column) steps — i.e. the inner loop is
 *    allocation free; only the one-time setup (stream build,
 *    compression, output tensor) allocates, and push_back growth of
 *    the setup vectors is at most logarithmic in N.
 *
 * It also pins the analytical engine's DSTC balance model
 * (unstructuredUtilization) as allocation free after a thread's first
 * call.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/random.hh"
#include "format/hierarchical_cp.hh"
#include "format/operand_b.hh"
#include "microsim/simulator.hh"
#include "microsim/vfmu.hh"
#include "model/density.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"

// Sanitizers install their own global operator new/delete interceptors
// that take precedence over (parts of) a user replacement, which both
// breaks the counting and trips alloc-dealloc-mismatch checks. The
// counting machinery only exists in uninstrumented builds; the tests
// skip otherwise.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HIGHLIGHT_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HIGHLIGHT_ALLOC_COUNTING 0
#else
#define HIGHLIGHT_ALLOC_COUNTING 1
#endif
#else
#define HIGHLIGHT_ALLOC_COUNTING 1
#endif

namespace
{

std::atomic<long long> g_allocs{0};

} // namespace

#if HIGHLIGHT_ALLOC_COUNTING

void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#define HIGHLIGHT_REQUIRE_COUNTING()
#else
#define HIGHLIGHT_REQUIRE_COUNTING()                                   \
    GTEST_SKIP() << "allocation counting disabled under sanitizers"
#endif

namespace highlight
{
namespace
{

long long
countAllocs(const HighlightSimulator &sim, const DenseTensor &a,
            const HssSpec &spec, const DenseTensor &b)
{
    const long long before = g_allocs.load();
    auto r = sim.run(a, spec, b);
    const long long after = g_allocs.load();
    // Keep the result alive past the second read so its frees don't
    // interleave (frees aren't counted anyway, but be explicit).
    EXPECT_GT(r.stats.cycles, 0);
    return after - before;
}

class AllocGrowth : public ::testing::TestWithParam<bool>
{
};

TEST_P(AllocGrowth, RunAllocationsDoNotGrowWithTheStepCount)
{
    HIGHLIGHT_REQUIRE_COUNTING();
    const bool compress_b = GetParam();
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(31);
    const std::int64_t m = 3, k = spec.totalSpan() * 8;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const std::int64_t n_small = 6, n_big = 96;
    const auto b_small =
        compress_b ? randomUnstructured(
                         TensorShape({{"K", k}, {"N", n_small}}), 0.6,
                         rng)
                   : randomDense(
                         TensorShape({{"K", k}, {"N", n_small}}), rng);
    const auto b_big =
        compress_b ? randomUnstructured(
                         TensorShape({{"K", k}, {"N", n_big}}), 0.6,
                         rng)
                   : randomDense(TensorShape({{"K", k}, {"N", n_big}}),
                                 rng);
    MicrosimConfig cfg;
    cfg.compress_b = compress_b;
    const HighlightSimulator sim(cfg);

    // Warm up lazy library allocations (locales, first-use buffers).
    (void)countAllocs(sim, a, spec, b_small);

    const long long small = countAllocs(sim, a, spec, b_small);
    const long long big = countAllocs(sim, a, spec, b_big);
    // 16x the (group, column) steps: with the old per-step vectors the
    // delta was thousands of allocations; now only setup may differ
    // (push_back growth of metadata vectors is O(log n)).
    EXPECT_LE(big - small, 64)
        << "inner loop appears to allocate per step: " << small
        << " allocs at N=" << n_small << " vs " << big
        << " at N=" << n_big;
}

INSTANTIATE_TEST_SUITE_P(DenseAndCompressedB, AllocGrowth,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "compressed_b"
                                               : "dense_b";
                         });

TEST(AllocFree, VfmuReadShiftIntoCallerBufferNeverAllocates)
{
    HIGHLIGHT_REQUIRE_COUNTING();
    std::vector<float> data(4096);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<float>(i % 97);
    MicroGlb glb(data.data(), static_cast<std::int64_t>(data.size()),
                 16);
    Vfmu vfmu(glb, 32);
    float out[32];
    long long total_words = 0;
    const long long before = g_allocs.load();
    for (int pass = 0; pass < 4; ++pass) {
        vfmu.reset();
        glb.reset();
        while (!vfmu.exhausted())
            total_words += vfmu.readShift(12, out);
    }
    const long long after = g_allocs.load();
    EXPECT_EQ(after - before, 0);
    EXPECT_EQ(total_words, 4 * 4096);
}

TEST(AllocFree, RowWorkerSteadyStateAllocatesNothingAfterWarmUp)
{
    HIGHLIGHT_REQUIRE_COUNTING();
    // One row worker (one pool slot's state), driven directly as run()
    // drives it: the operand-B pass is a per-run phase built
    // beforehand, like compression. After construction — the per-slot
    // warm-up — simulating any number of rows, dense or compressed,
    // must not allocate a single time.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(37);
    const std::int64_t m = 4, k = spec.totalSpan() * 6, n = 12;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomUnstructured(
        TensorShape({{"K", k}, {"N", n}}), 0.5, rng);
    const HierarchicalCpMatrix a_cp(a, spec);
    const std::int64_t set_span = spec.totalSpan();

    // The (group-major, column-minor) stream run() would build.
    const auto stream = buildOrderedBStream(b, set_span);
    const OperandBStream b_comp(
        stream.data(), static_cast<std::int64_t>(stream.size()), 4, 4);

    SimContext ctx;
    ctx.a_cp = &a_cp;
    ctx.glb_row_words = 16;
    ctx.vfmu_capacity = 48;
    ctx.g0 = 2;
    ctx.h0 = 4;
    ctx.g1 = 2;
    ctx.h1 = 4;
    ctx.two_rank = true;
    ctx.groups = k / set_span;
    ctx.n = n;

    DenseTensor out(TensorShape({{"M", m}, {"N", n}}));
    for (const bool compressed : {false, true}) {
        SimContext mode = ctx;
        if (compressed) {
            mode.b_comp = &b_comp;
            mode.stream = b_comp.valuesData();
            mode.stream_len = b_comp.dataWords();
        } else {
            mode.stream = stream.data();
            mode.stream_len = static_cast<std::int64_t>(stream.size());
        }
        const OperandBPass b_pass(mode);
        mode.b_pass = &b_pass;
        RowGroupWorker worker(mode); // construction is the warm-up
        const long long before = g_allocs.load();
        for (int pass = 0; pass < 3; ++pass) {
            for (std::int64_t row = 0; row < m; ++row)
                worker.runGroup(row, 1, out);
        }
        const long long after = g_allocs.load();
        EXPECT_EQ(after - before, 0)
            << (compressed ? "compressed" : "dense") << " rows";
        EXPECT_GT(worker.stats().cycles, 0);
    }
}

TEST(AllocFree, GroupWorkerSteadyStateAllocatesNothingAfterWarmUp)
{
    HIGHLIGHT_REQUIRE_COUNTING();
    // The row-group worker sized for several rows, given the run's
    // operand-B pass as run() gives it: after construction, any mix of
    // full groups, partial trailing groups, and single rows — dense or
    // compressed — must not allocate a single time. The per-column
    // sums are sized at construction.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(41);
    const std::int64_t m = 10, k = spec.totalSpan() * 6, n = 12;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomUnstructured(
        TensorShape({{"K", k}, {"N", n}}), 0.5, rng);
    const HierarchicalCpMatrix a_cp(a, spec);
    const std::int64_t set_span = spec.totalSpan();

    const auto stream = buildOrderedBStream(b, set_span);
    const OperandBStream b_comp(
        stream.data(), static_cast<std::int64_t>(stream.size()), 4, 4);

    SimContext ctx;
    ctx.a_cp = &a_cp;
    ctx.glb_row_words = 16;
    ctx.vfmu_capacity = 48;
    ctx.g0 = 2;
    ctx.h0 = 4;
    ctx.g1 = 2;
    ctx.h1 = 4;
    ctx.two_rank = true;
    ctx.groups = k / set_span;
    ctx.n = n;

    DenseTensor out(TensorShape({{"M", m}, {"N", n}}));
    for (const bool compressed : {false, true}) {
        SimContext mode = ctx;
        if (compressed) {
            mode.b_comp = &b_comp;
            mode.stream = b_comp.valuesData();
            mode.stream_len = b_comp.dataWords();
        } else {
            mode.stream = stream.data();
            mode.stream_len = static_cast<std::int64_t>(stream.size());
        }
        const OperandBPass b_pass(mode);
        mode.b_pass = &b_pass;
        RowGroupWorker worker(mode, /*group_capacity=*/4);
        const long long before = g_allocs.load();
        for (int pass = 0; pass < 3; ++pass) {
            worker.runGroup(0, 4, out);  // full group
            worker.runGroup(4, 4, out);  // full group
            worker.runGroup(8, 2, out);  // partial trailing group
            worker.runGroup(0, 1, out);  // single row
        }
        const long long after = g_allocs.load();
        EXPECT_EQ(after - before, 0)
            << (compressed ? "compressed" : "dense") << " groups";
        EXPECT_GT(worker.stats().cycles, 0);
    }
}

TEST(AllocFree, WorkerWithoutASharedPassAllocatesOnlyOnItsFirstGroup)
{
    HIGHLIGHT_REQUIRE_COUNTING();
    // A hand-built context carries no operand-B pass, so the worker
    // runs its own on the first runGroup() — that call allocates the
    // pass — and keeps it: every later group allocates nothing.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(43);
    const std::int64_t m = 10, k = spec.totalSpan() * 6, n = 12;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomUnstructured(
        TensorShape({{"K", k}, {"N", n}}), 0.5, rng);
    const HierarchicalCpMatrix a_cp(a, spec);
    const auto stream = buildOrderedBStream(b, spec.totalSpan());
    const OperandBStream b_comp(
        stream.data(), static_cast<std::int64_t>(stream.size()), 4, 4);

    DenseTensor out(TensorShape({{"M", m}, {"N", n}}));
    for (const bool compressed : {false, true}) {
        const SimContext ctx = makeSimContext(
            a_cp, compressed ? &b_comp : nullptr, stream, n);
        ASSERT_EQ(ctx.b_pass, nullptr);
        RowGroupWorker worker(ctx, /*group_capacity=*/4);
        const long long before_first = g_allocs.load();
        worker.runGroup(0, 4, out);
        const long long after_first = g_allocs.load();
        EXPECT_GT(after_first - before_first, 0)
            << (compressed ? "compressed" : "dense")
            << ": the first group runs the pass";
        for (int pass = 0; pass < 3; ++pass) {
            worker.runGroup(4, 4, out);
            worker.runGroup(8, 2, out);
            worker.runGroup(0, 1, out);
        }
        EXPECT_EQ(g_allocs.load() - after_first, 0)
            << (compressed ? "compressed" : "dense") << " later groups";
    }
}

TEST(AllocFree, UnstructuredUtilizationAllocatesNothingAfterFirstCall)
{
    HIGHLIGHT_REQUIRE_COUNTING();
    // DSTC's balance model runs four times per evaluateBest; its mass
    // function lives in per-thread scratch sized by the first call.
    double acc = unstructuredUtilization(0.5, 32, 64);
    const long long before = g_allocs.load();
    for (int i = 1; i <= 1000; ++i)
        acc += unstructuredUtilization(i / 1001.0, 32, 64);
    const long long after = g_allocs.load();
    EXPECT_EQ(after - before, 0);
    EXPECT_GT(acc, 0.0);
}

TEST(AllocFree, PeLoadAndStepFromPointersNeverAllocate)
{
    HIGHLIGHT_REQUIRE_COUNTING();
    MicroPe pe(4);
    const float vals[4] = {1.0f, 2.0f, 0.0f, 3.0f};
    const std::uint8_t offs[4] = {0, 2, 0, 3};
    const float block[4] = {0.5f, 0.0f, 1.5f, 2.5f};
    double acc = 0.0;
    const long long before = g_allocs.load();
    for (int i = 0; i < 1000; ++i) {
        pe.loadBlock(vals, offs);
        acc += pe.step(block, 4);
    }
    const long long after = g_allocs.load();
    EXPECT_EQ(after - before, 0);
    EXPECT_NEAR(acc, 1000.0 * (0.5 + 3.0 + 7.5), 1e-9);
}

} // namespace
} // namespace highlight
