/**
 * @file
 * google-benchmark timings of the library's computational kernels:
 * HSS sparsification, hierarchical CP compression/decompression, the
 * analytical evaluation (with DSTC's balance model and the eval
 * cache's key on their own rows), and the cycle-level micro-simulator.
 *
 * Besides the normal google-benchmark CLI, the binary accepts
 * `--json <path>`: after the run it writes a versioned JSON summary
 * ({"schema": "highlight-bench-v1", "benchmarks": [{name, ns_per_op,
 * items_per_second}, ...]}) that CI uploads as the BENCH_microsim.json
 * artifact, recording the perf trajectory PR over PR.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel/harness.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/evaluator.hh"
#include "dnn/deit.hh"
#include "dnn/resnet50.hh"
#include "dnn/transformer.hh"
#include "format/hierarchical_cp.hh"
#include "format/operand_b.hh"
#include "io/bench_io.hh"
#include "microsim/lane_kernel.hh"
#include "microsim/simulator.hh"
#include "microsim/vfmu.hh"
#include "model/density.hh"
#include "runtime/batch_runner.hh"
#include "runtime/thread_pool.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"

namespace
{

using namespace highlight;

const HssSpec &
benchSpec()
{
    static const HssSpec spec({GhPattern(2, 4), GhPattern(4, 8)});
    return spec;
}

DenseTensor
benchMatrix(std::int64_t rows, std::int64_t cols)
{
    Rng rng(42);
    return randomDense(TensorShape({{"M", rows}, {"K", cols}}), rng);
}

void
BM_HssSparsify(benchmark::State &state)
{
    const auto dense = benchMatrix(state.range(0), 1024);
    for (auto _ : state) {
        auto sparse = hssSparsify(dense, benchSpec());
        benchmark::DoNotOptimize(sparse.data().data());
    }
    state.SetItemsProcessed(state.iterations() * dense.numel());
}
BENCHMARK(BM_HssSparsify)->Arg(16)->Arg(64)->Arg(256);

/**
 * Matrix compression across row counts and pool sizes: compression
 * fans row-blocks out on the runtime pool, so the threads axis records
 * the parallel-compression trajectory (the compressed matrix is
 * byte-identical across the axis — only the wall clock moves).
 */
void
BM_HierarchicalCpCompress(benchmark::State &state)
{
    ThreadPool::setGlobalThreads(static_cast<int>(state.range(1)));
    const auto sparse =
        hssSparsify(benchMatrix(state.range(0), 1024), benchSpec());
    for (auto _ : state) {
        HierarchicalCpMatrix cp(sparse, benchSpec());
        benchmark::DoNotOptimize(cp.dataWords());
    }
    state.SetItemsProcessed(state.iterations() * sparse.numel());
    ThreadPool::setGlobalThreads(1);
}
// UseRealTime for the same reason as BM_MicrosimFig16 below: the work
// runs on pool threads.
BENCHMARK(BM_HierarchicalCpCompress)
    ->ArgsProduct({{16, 64, 256}, {1, 4}})
    ->ArgNames({"rows", "threads"})
    ->UseRealTime();

void
BM_HierarchicalCpDecompress(benchmark::State &state)
{
    const auto sparse =
        hssSparsify(benchMatrix(state.range(0), 1024), benchSpec());
    const HierarchicalCpMatrix cp(sparse, benchSpec());
    for (auto _ : state) {
        auto dense = cp.decompress();
        benchmark::DoNotOptimize(dense.data().data());
    }
    state.SetItemsProcessed(state.iterations() * sparse.numel());
}
BENCHMARK(BM_HierarchicalCpDecompress)->Arg(16)->Arg(64);

/**
 * How many densities distinct:1 and DSTC_cold cycle through: far more
 * than the 64-slot per-thread memo of DSTC's balance model holds, so
 * nearly every call runs the model.
 */
constexpr int kDistinctDensities = 1000;

double
distinctDensity(int i)
{
    return (i + 1) / (kDistinctDensities + 1.0);
}

/**
 * One supported analytical layer job per call: evaluateBest, which
 * evaluates both operand orders, on each of `workloads` in turn. A
 * workload the design rejects fails the row instead of timing the
 * rejection path. main() registers one row per design of the
 * Evaluator lineup, named BM_EvaluateBest/<design>, on one workload:
 * the synthetic suite's A50%-B50% cell (1024^3, a 50%-dense HSS A and
 * a 50%-dense unstructured B), which the five designs of the paper's
 * lineup all run, and for DSSO, which needs a structured B, fig17's
 * B = C1(2:4) cell. DSTC asks its balance model for both operands in
 * both orders; on one workload every call after the first hits the
 * per-thread memo, so BM_EvaluateBest/DSTC times the warm path and
 * BM_EvaluateBest/DSTC_cold cycles B's density through
 * kDistinctDensities values, so B's calls miss.
 */
void
BM_EvaluateBest(benchmark::State &state, const Accelerator *design,
                const std::vector<GemmWorkload> &workloads)
{
    for (const GemmWorkload &w : workloads) {
        if (!evaluateBest(*design, w).supported) {
            const std::string msg = design->name() + " rejects " + w.str();
            state.SkipWithError(msg.c_str());
            return;
        }
    }
    std::size_t i = 0;
    for (auto _ : state) {
        auto r = evaluateBest(*design, workloads[i]);
        benchmark::DoNotOptimize(r.cycles);
        i = i + 1 == workloads.size() ? 0 : i + 1;
    }
}

/** The synthetic suite's cell of the given name, e.g. "A50%-B50%". */
GemmWorkload
syntheticCell(const std::string &name)
{
    for (const GemmWorkload &w : syntheticSuite())
        if (w.name == name)
            return w;
    fatal("bench_kernels: no synthetic cell " + name);
}

/** fig17's workload for DSSO at B = C1(2:4)->C0(dense). */
GemmWorkload
fig17DssoCell()
{
    GemmWorkload w;
    w.name = "B=C1(2:4)";
    w.m = w.k = w.n = 1024;
    w.a = OperandSparsity::structured(HssSpec({GhPattern(2, 4)}));
    w.b = OperandSparsity::structured(
        HssSpec({GhPattern(4, 4), GhPattern(2, 4)}));
    return w;
}

/**
 * DSTC's balance model at its lane width and block (32 lanes, 64
 * elements). distinct:0 repeats one density, so every call after the
 * first is a memo hit; distinct:1 cycles through kDistinctDensities
 * densities, so nearly every call runs the model: one binomialPmfs
 * pass over the lgamma table.
 */
void
BM_UnstructuredUtilization(benchmark::State &state)
{
    const bool distinct = state.range(0) != 0;
    int i = 0;
    for (auto _ : state) {
        const double d = distinct ? distinctDensity(i) : 0.35;
        i = i + 1 == kDistinctDensities ? 0 : i + 1;
        benchmark::DoNotOptimize(unstructuredUtilization(d, 32, 64));
    }
}
BENCHMARK(BM_UnstructuredUtilization)->ArgName("distinct")->Arg(0)->Arg(1);

/**
 * keyOf over fig15's sweep: 3 DNNs x 16 co-design candidates, 4,544
 * layer jobs (466 distinct keys), as evaluateBatch keys them. One
 * iteration keys every job once. The row keeps the name it had when
 * keyOf belonged to the cross-call cache, so the ledger stays
 * comparable.
 */
void
BM_EvalCacheKey(benchmark::State &state)
{
    const Evaluator ev;
    std::vector<EvalJob> jobs;
    for (const DnnModel &model :
         {resnet50Model(), transformerBigModel(), deitSmallModel()}) {
        for (const DnnScenario &c : fig15Candidates()) {
            const Accelerator *accel = &ev.design(c.design);
            for (auto &w : ev.buildDnnWorkloads(model, c))
                jobs.push_back({accel, std::move(w)});
        }
    }
    for (auto _ : state) {
        for (const EvalJob &job : jobs) {
            auto key = keyOf(job.design->name(), job.workload);
            benchmark::DoNotOptimize(key.data());
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_EvalCacheKey);

void
BM_Microsim(benchmark::State &state)
{
    // Pinned to one thread: this is the historical single-thread
    // trajectory row (thread scaling is BM_MicrosimFig16's job).
    ThreadPool::setGlobalThreads(1);
    Rng rng(7);
    const std::int64_t k = benchSpec().totalSpan() *
                           static_cast<std::int64_t>(state.range(0));
    const auto a = hssSparsify(benchMatrix(4, k), benchSpec());
    const auto b =
        randomDense(TensorShape({{"K", k}, {"N", 16}}), rng);
    const HighlightSimulator sim;
    for (auto _ : state) {
        auto r = sim.run(a, benchSpec(), b);
        benchmark::DoNotOptimize(r.stats.cycles);
    }
    state.SetItemsProcessed(state.iterations() * a.numel() * 16);
}
BENCHMARK(BM_Microsim)->Arg(2)->Arg(8);

/**
 * Fig16-sized microsim run: the Sec 6.4 validation config (75% sparse
 * A under C1(4:8)->C0(2:4)), sized so one iteration covers 131072
 * processing steps. This is the number the tentpole perf work is
 * measured on; the second argument pins the runtime pool so the JSON
 * artifact records both the 1-thread and the N-thread trajectory
 * (outputs and counters are byte-identical across the two — only the
 * wall clock moves).
 */
void
BM_MicrosimFig16(benchmark::State &state)
{
    const bool compress_b = state.range(0) != 0;
    ThreadPool::setGlobalThreads(static_cast<int>(state.range(1)));
    Rng rng_a(42), rng_b(7);
    const std::int64_t m = 32, k = 1024, n = 128;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng_a),
        benchSpec());
    auto b = randomDense(TensorShape({{"K", k}, {"N", n}}), rng_b);
    if (compress_b)
        b = unstructuredSparsify(b, 0.65);
    MicrosimConfig cfg;
    cfg.compress_b = compress_b;
    cfg.group_rows = static_cast<int>(state.range(2));
    const HighlightSimulator sim(cfg);
    for (auto _ : state) {
        auto r = sim.run(a, benchSpec(), b);
        benchmark::DoNotOptimize(r.stats.cycles);
    }
    state.SetItemsProcessed(state.iterations() * m * (k / 32) * n);
    ThreadPool::setGlobalThreads(1);
}
// UseRealTime: the work runs on pool threads, so rate counters must
// come from wall time — CPU time of the benchmark thread would report
// a phantom ~threads-fold items/s inflation. The group_rows axis
// contrasts per-row restreaming (1, the pre-row-group behavior) with
// the default shared pass over 8 rows; results are byte-identical
// across the whole product, only the wall clock moves.
BENCHMARK(BM_MicrosimFig16)
    ->ArgsProduct({{0, 1}, {1, 4}, {1, 8}})
    ->ArgNames({"compress_b", "threads", "group_rows"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The operands of one of perfbench's three microsim_fig16 runs, named
 * by B's sparsity in percent, prepared as run() prepares them up to
 * the operand-B pass: compressed A, the ordered B stream, its
 * compressed form, and the worker context. 0 and 65 are
 * BM_MicrosimFig16's two-rank A with dense B streamed dense and with
 * 65%-sparse B compressed; 90 is a one-rank C0(2:4) A with 90%-sparse
 * B compressed.
 */
struct Fig16Context
{
    explicit Fig16Context(int b_sparsity)
        : spec(b_sparsity == 90 ? HssSpec({GhPattern(2, 4)}) : benchSpec())
    {
        Rng rng_a(42), rng_b(7);
        const auto a = hssSparsify(
            randomDense(TensorShape({{"M", m}, {"K", k}}), rng_a), spec);
        auto b = randomDense(TensorShape({{"K", k}, {"N", n}}), rng_b);
        if (b_sparsity != 0)
            b = unstructuredSparsify(b, b_sparsity / 100.0);
        a_cp = std::make_unique<HierarchicalCpMatrix>(a, spec);
        stream = buildOrderedBStream(b, spec.totalSpan());
        if (b_sparsity != 0)
            b_comp = std::make_unique<OperandBStream>(
                stream.data(), static_cast<std::int64_t>(stream.size()),
                spec.rank(0).h, spec.numRanks() > 1 ? spec.rank(1).h : 1);
        ctx = makeSimContext(*a_cp, b_comp.get(), stream, n);
    }

    // ctx points into this object.
    Fig16Context(const Fig16Context &) = delete;
    Fig16Context &operator=(const Fig16Context &) = delete;

    static constexpr std::int64_t m = 32, k = 1024, n = 128;
    const HssSpec spec;
    std::unique_ptr<HierarchicalCpMatrix> a_cp;
    std::vector<float> stream;
    std::unique_ptr<OperandBStream> b_comp;
    SimContext ctx;
};

/**
 * The operand-B pass alone: the one GLB + VFMU traversal that decodes
 * (and, compressed, expands) every set of a fig16-sized B for a whole
 * run, including the table's allocation, as run() performs it once
 * between compressing B and the row groups.
 */
void
BM_OperandBPass(benchmark::State &state)
{
    const Fig16Context f(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        const OperandBPass pass(f.ctx);
        benchmark::DoNotOptimize(pass.slot(0, 0));
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * f.ctx.groups * f.n);
}
BENCHMARK(BM_OperandBPass)
    ->ArgsProduct({{0, 65, 90}})
    ->ArgNames({"b_sparsity"})
    ->Unit(benchmark::kMillisecond);

/**
 * The row-group steady state alone: RowGroupWorker::runGroup over all
 * 32 rows of a prebuilt context with one microsim_fig16 run's operands
 * (Fig16Context), in groups of `group_rows`, on the calling thread,
 * with one compiled variant of the lane kernel. Compressing A, building
 * and compressing the B stream, the operand-B pass (BM_OperandBPass),
 * the pool and the stats fold stay outside the timed loop, so this
 * times the lanes only, and the ledger can attribute a change in
 * BM_MicrosimFig16 to the steady state or to the phases around it.
 * main() registers one row per host-supported variant
 * (laneKernelVariants()), so the ratio of a wide variant's row to the
 * baseline's is the multiversioning gain, measured within one run.
 */
void
BM_RowGroupSteadyState(benchmark::State &state, int b_sparsity,
                       int group_rows, LaneKernel kernel)
{
    const Fig16Context f(b_sparsity);
    const std::int64_t m = f.m, n = f.n;
    const OperandBPass pass(f.ctx);
    SimContext ctx = f.ctx;
    ctx.b_pass = &pass;

    RowGroupWorker worker(ctx, group_rows);
    DenseTensor out(TensorShape({{"M", m}, {"N", n}}));
    for (auto _ : state) {
        std::fill(out.data().begin(), out.data().end(), 0.0f);
        for (std::int64_t row = 0; row < m; row += group_rows)
            worker.runGroup(row, group_rows, out, kernel);
        benchmark::DoNotOptimize(out.data().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * m * ctx.groups * n);
}

/** The VFMU ring buffer alone: variable shifts over aligned rows. */
void
BM_VfmuStream(benchmark::State &state)
{
    std::vector<float> data(1 << 16);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<float>(i % 97);
    MicroGlb glb(data.data(), static_cast<std::int64_t>(data.size()),
                 16);
    Vfmu vfmu(glb, 32);
    float out[32];
    for (auto _ : state) {
        vfmu.reset();
        glb.reset();
        while (!vfmu.exhausted())
            benchmark::DoNotOptimize(vfmu.readShift(12, out));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_VfmuStream);

/**
 * One PE step, the innermost unit of the datapath: G0 = 2 lanes
 * selecting from H0 = 4 blocks as in fig16's C0(2:4), over a ring of
 * random B blocks that are dense or hold the given B sparsity in
 * percent. With sparse B which lanes gate is unpredictable, so the
 * sparse row shows what gating on the data costs.
 */
void
BM_PeStep(benchmark::State &state)
{
    constexpr std::int64_t kBlocks = 4096, kH0 = 4;
    Rng rng(11);
    const auto ring = randomUnstructured(
        TensorShape({{"K", kBlocks * kH0}}),
        static_cast<double>(state.range(0)) / 100.0, rng);
    MicroPe pe(2);
    const float vals[2] = {1.5f, -0.75f};
    const std::uint8_t offs[2] = {1, 3};
    pe.loadBlock(vals, offs);
    const float *blocks = ring.data().data();
    std::int64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pe.step(blocks + i * kH0, static_cast<int>(kH0)));
        i = (i + 1) % kBlocks;
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_PeStep)->ArgName("b_sparsity")->Arg(0)->Arg(65);

/**
 * Compressing a fig16-sized operand B (K1024 x N128 at 65% sparsity,
 * in the C1(4:8)->C0(2:4) set order): the format layer's serial step
 * before the compressed-B steady state.
 */
void
BM_OperandBCompress(benchmark::State &state)
{
    Rng rng(7);
    const auto b = randomUnstructured(
        TensorShape({{"K", 1024}, {"N", 128}}), 0.65, rng);
    const auto stream = buildOrderedBStream(b, benchSpec().totalSpan());
    for (auto _ : state) {
        const OperandBStream comp(
            stream.data(), static_cast<std::int64_t>(stream.size()),
            benchSpec().rank(0).h, benchSpec().rank(1).h);
        benchmark::DoNotOptimize(comp.dataWords());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_OperandBCompress);

void
BM_ReferenceGemm(benchmark::State &state)
{
    Rng rng(9);
    const auto a = benchMatrix(state.range(0), 256);
    const auto b = randomDense(
        TensorShape({{"K", 256}, {"N", state.range(0)}}), rng);
    for (auto _ : state) {
        auto c = referenceGemm(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
}
BENCHMARK(BM_ReferenceGemm)->Arg(32)->Arg(64);

/**
 * Console reporter that additionally captures (name, ns/op, items/s)
 * per iteration run, for the versioned --json summary.
 */
class JsonCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    /** The io/bench_io row the --json summary is written from. */
    using Entry = BenchEntry;

    /**
     * google-benchmark < 1.8 reports failures via Run::error_occurred;
     * 1.8+ removed it (replaced by the `skipped` state). Feature-detect
     * the member so the reporter builds against either.
     */
    template <class R>
    static auto
    runFailed(const R &run, int) -> decltype(run.error_occurred)
    {
        return run.error_occurred;
    }
    template <class R>
    static bool
    runFailed(const R &, ...)
    {
        return false;
    }

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.run_type != Run::RT_Iteration ||
                runFailed(run, 0))
                continue;
            Entry e;
            e.name = run.benchmark_name();
            const double iters =
                run.iterations > 0
                    ? static_cast<double>(run.iterations)
                    : 1.0;
            e.ns_per_op = run.real_accumulated_time / iters * 1e9;
            const auto it = run.counters.find("items_per_second");
            if (it != run.counters.end())
                e.items_per_second = it->second;
            entries_.push_back(e);
        }
        benchmark::ConsoleReporter::ReportRuns(reports);
    }

    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/** Strip `--json <path>` from argv before benchmark::Initialize. */
std::string
extractJsonPath(int &argc, char **argv)
{
    std::string path;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            path = argv[++i];
            continue;
        }
        argv[w++] = argv[i];
    }
    argc = w;
    return path;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path = extractJsonPath(argc, argv);
    // The lineup only owns the design models.
    const Evaluator lineup;
    const GemmWorkload cell = syntheticCell("A50%-B50%");
    for (const Accelerator *design : lineup.designs()) {
        const std::string name = "BM_EvaluateBest/" + design->name();
        const GemmWorkload w =
            design->name() == "DSSO" ? fig17DssoCell() : cell;
        benchmark::RegisterBenchmark(name.c_str(), BM_EvaluateBest,
                                     design, std::vector<GemmWorkload>{w});
    }
    std::vector<GemmWorkload> cold(kDistinctDensities, cell);
    for (int i = 0; i < kDistinctDensities; ++i)
        cold[static_cast<std::size_t>(i)].b =
            OperandSparsity::unstructured(distinctDensity(i));
    benchmark::RegisterBenchmark("BM_EvaluateBest/DSTC_cold",
                                 BM_EvaluateBest, &lineup.design("DSTC"),
                                 cold);
    // Named as google-benchmark names an argument product, with the
    // variant last, e.g. BM_RowGroupSteadyState/b_sparsity:65/
    // group_rows:8/variant:avx2.
    for (const int b_sparsity : {0, 65, 90}) {
        for (const int group_rows : {1, 8}) {
            for (const LaneKernelVariant &v : laneKernelVariants()) {
                if (!v.host_supported)
                    continue;
                const std::string name =
                    "BM_RowGroupSteadyState/b_sparsity:" +
                    std::to_string(b_sparsity) +
                    "/group_rows:" + std::to_string(group_rows) +
                    "/variant:" + v.name;
                benchmark::RegisterBenchmark(name.c_str(),
                                             BM_RowGroupSteadyState,
                                             b_sparsity, group_rows, v.run)
                    ->Unit(benchmark::kMillisecond);
            }
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (!json_path.empty()) {
        if (reporter.entries().empty()) {
            std::fprintf(stderr,
                         "bench_kernels: no benchmark results to dump "
                         "to %s\n",
                         json_path.c_str());
            return 1;
        }
        // CI validates the ledger with json.tool and greps, and the
        // perf history wants to be diffable.
        if (!writeBenchJson(json_path, "bench_kernels",
                            reporter.entries())) {
            std::fprintf(stderr, "bench_kernels: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
    }
    return 0;
}
