/**
 * @file
 * The repository benchmark: a closed-loop client driving the HighLight
 * library from one process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--threads T] [--golden FILE]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 alternates
 * untraced and traced ops and prints the per-layer metrics, each the
 * median over the traced ops. Every op of either form, warm-up ops
 * included, is checked bit for bit against a serial reference built
 * once at set-up. --golden names the file of committed reference
 * digests; an unreadable file is an error. The last stdout line is one
 * JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "fingerprint.hh"
#include "harness.hh"
#include "runtime/thread_pool.hh"
#include "trace.hh"

namespace
{

using namespace perfbench;

/**
 * setup_s is the median CPU time of the set-ups of one run: this many
 * before the first op, and with --trace 0 one more every
 * kSetupIntervalS seconds between ops. Spreading them over the run
 * samples the same host load the ops see, instead of a few
 * milliseconds of it.
 */
constexpr int kSetupRepsBefore = 5;
constexpr double kSetupIntervalS = 0.5;

/** Ops per form per run, so op_p90_ms has 10 samples beyond it. */
constexpr std::size_t kMinOps = 100;

/** The default and the held-out seed: golden/digests.txt must have an
 *  entry for each, so a missing entry counts as a mismatch. */
constexpr std::uint64_t kCommittedSeeds[] = {1, 2};

/** Knobs that would change what the library does under the timer. */
const char *const kForbiddenEnv[] = {
    "HIGHLIGHT_CACHE_FILE", "HIGHLIGHT_CACHE_CAP", "HIGHLIGHT_CACHE_FORMAT",
    "HIGHLIGHT_THREADS",    "HIGHLIGHT_FAILPOINTS"};

struct Metric
{
    const char *name;
    const char *unit;
};

/** Per-layer metrics, in BENCHMARK.json order. A layer a workload
 *  does not run reports 0. */
const Metric kLayerMetrics[] = {
    {"core.build_workloads_ms", "ms"},
    {"core.reduce_ms", "ms"},
    {"core.frontier_ms", "ms"},
    {"runtime.run_batch_ms", "ms"},
    {"runtime.self_ms", "ms"},
    {"runtime.jobs", "count"},
    {"runtime.jobs_per_eval", "ratio"},
    {"accel.evaluate_calls", "count"},
    {"accel.evaluate_busy_ms", "ms"},
    {"accel.ns_per_evaluate", "ns"},
    {"accel.parallelism", "ratio"},
    {"format.compress_a_ms", "ms"},
    {"format.compress_b_ms", "ms"},
    {"microsim.build_b_stream_ms", "ms"},
    {"microsim.fold_ms", "ms"},
    {"microsim.serial_prefix_share", "ratio"},
    {"microsim.steady_dense_b_ms", "ms"},
    {"microsim.steady_sparse_b_ms", "ms"},
    {"microsim.steady_parallelism", "ratio"},
    {"microsim.sim_cycles", "count"},
    {"microsim.host_ns_per_sim_cycle", "ns"},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    int threads = 4;
    std::string golden;
};

bool
parseUint(const std::string &s, std::uint64_t *out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
    if (errno == ERANGE)
        return false;
    *out = v;
    return true;
}

bool
parseArgs(int argc, char **argv, Args *a)
{
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        std::uint64_t u = 0;
        if (flag == "--workload") {
            a->workload = value;
        } else if (flag == "--seed") {
            if (!parseUint(value, &a->seed))
                return false;
            have_seed = true;
        } else if (flag == "--seconds") {
            char *end = nullptr;
            a->seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !(a->seconds > 0.0 && a->seconds <= 3600.0))
                return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return false;
            a->trace = value == "1";
        } else if (flag == "--threads") {
            if (!parseUint(value, &u) || u < 1 || u > 256)
                return false;
            a->threads = static_cast<int>(u);
        } else if (flag == "--golden") {
            a->golden = value;
        } else {
            return false;
        }
    }
    return !a->workload.empty() && have_seed && a->seconds > 0.0 &&
           a->trace >= 0;
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

/**
 * This process image's resident-set high-water mark (VmHWM). Not
 * getrusage's ru_maxrss: Linux carries that across execve, so it would
 * report the launching process's peak instead of the benchmark's.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0.0;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

struct SetupTimes
{
    std::vector<double> cpu_s, wall_s;
};

/**
 * One timed set-up: pool start-up, workload construction, input
 * generation and model construction. Tearing down the pool and the
 * workload it built happens after the timer stops.
 */
std::unique_ptr<Workload>
timedSetup(const Args &args, int threads, SetupTimes *times)
{
    const std::int64_t cpu0 = processCpuNs();
    const std::int64_t t0 = nowNs();
    const highlight::ThreadPool pool(threads);
    auto wl = makeWorkload(args.workload);
    wl->setup(args.seed);
    times->wall_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    times->cpu_s.push_back(static_cast<double>(processCpuNs() - cpu0) /
                           1e9);
    return wl;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--threads T] [--golden FILE]\n";
        return 2;
    }
#ifndef __OPTIMIZE__
    std::cerr << "perfbench: refusing to time a non-optimized build (build "
                 "type '" PERFBENCH_BUILD_TYPE "')\n";
    return 2;
#endif
    for (const char *var : kForbiddenEnv) {
        if (!highlight::stringFromEnv(var).empty()) {
            std::cerr << "perfbench: refusing to run with " << var
                      << " set; unset it so the library runs its "
                         "default in-memory configuration\n";
            return 2;
        }
    }
    if (!makeWorkload(args.workload)) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }
    const int nproc = availableCpus();
    const int threads = std::min(args.threads, nproc);

    // The ops run on the global pool; each timed set-up starts a pool
    // of the same size of its own.
    highlight::ThreadPool::setGlobalThreads(threads);
    SetupTimes setup;
    const std::unique_ptr<Workload> wl = timedSetup(args, threads, &setup);
    for (int r = 1; r < kSetupRepsBefore; ++r)
        timedSetup(args, threads, &setup);
    std::string reference;
    const bool reference_ok = wl->buildReference(&reference);
    const std::uint64_t digest = fnv1a(reference);

    // A golden file that was named must be readable. For the committed
    // seeds it must also hold this workload's digest.
    std::uint64_t golden = 0;
    Golden lookup = Golden::NoEntry;
    if (!args.golden.empty()) {
        lookup = readGolden(args.golden, args.workload, args.seed, &golden);
        if (lookup == Golden::Unreadable) {
            std::cerr << "perfbench: cannot read golden file "
                      << args.golden << "\n";
            return 2;
        }
    }
    const bool committed =
        std::find(std::begin(kCommittedSeeds), std::end(kCommittedSeeds),
                  args.seed) != std::end(kCommittedSeeds);
    bool golden_ok = true;
    if (lookup == Golden::Found)
        golden_ok = golden == digest;
    else if (committed && !args.golden.empty())
        golden_ok = false;
    if (lookup == Golden::Found && !golden_ok)
        std::cerr << "perfbench: reference digest " << std::hex << digest
                  << " != golden " << golden << std::dec << "\n";
    else if (!golden_ok)
        std::cerr << "perfbench: " << args.golden << " has no digest for "
                  << args.workload << " seed " << args.seed << "\n";

    LoopOptions warm;
    warm.seconds = std::min(1.0, 0.1 * args.seconds);
    warm.min_ops = 3;
    warm.trace = args.trace == 1;
    const LoopResult warm_run = runLoop(*wl, reference, warm);

    LoopOptions opt;
    opt.seconds = args.seconds;
    opt.min_ops = kMinOps;
    opt.trace = args.trace == 1;
    std::int64_t next_setup = nowNs();
    if (args.trace == 0) {
        opt.between_ops = [&] {
            if (nowNs() < next_setup)
                return;
            timedSetup(args, threads, &setup);
            next_setup = nowNs() + static_cast<std::int64_t>(
                                       kSetupIntervalS * 1e9);
        };
    }
    LoopResult run = runLoop(*wl, reference, opt);
    run.attempted += warm_run.attempted;
    run.failed += warm_run.failed;

    // `metrics` form the JSON result; `shown` are printed beside them
    // only. The gated times are CPU times: on a shared VM the hypervisor
    // steals vCPUs for minutes at a time, which doubles wall times but
    // is not charged as CPU time (see README.md).
    std::vector<std::pair<Metric, double>> metrics, shown;
    if (args.trace == 0) {
        const double busy_s =
            std::accumulate(run.op_ms.begin(), run.op_ms.end(), 0.0) /
            1e3;
        metrics.push_back(
            {{"op_cpu_p50_ms", "ms"}, quantile(run.op_cpu_ms, 0.5)});
        metrics.push_back({{"setup_s", "s"}, median(setup.cpu_s)});
        metrics.push_back({{"peak_rss_mb", "MiB"}, peakRssMb()});
        shown.push_back({{"ops_per_s", "1/s"},
                         static_cast<double>(run.op_ms.size()) / busy_s});
        shown.push_back({{"op_p50_ms", "ms"}, quantile(run.op_ms, 0.5)});
        shown.push_back({{"op_p90_ms", "ms"}, quantile(run.op_ms, 0.9)});
        shown.push_back({{"setup_wall_s", "s"}, median(setup.wall_s)});
        shown.push_back({{"setup_reps", "count"},
                         static_cast<double>(setup.cpu_s.size())});
    } else {
        for (const Metric &m : kLayerMetrics) {
            std::vector<double> v;
            for (const LayerSample &s : run.layers) {
                const auto it = s.find(m.name);
                v.push_back(it == s.end() ? 0.0 : it->second);
            }
            metrics.push_back({m, median(v)});
        }
        std::vector<double> coverage;
        for (std::size_t i = 0; i < run.layers.size(); ++i) {
            const auto it = run.layers[i].find(kPathMs);
            if (it != run.layers[i].end())
                coverage.push_back(it->second / run.traced_op_ms[i]);
        }
        const double traced_p50 = quantile(run.traced_op_ms, 0.5);
        metrics.push_back({{"trace.op_p50_ms", "ms"}, traced_p50});
        metrics.push_back({{"trace.overhead_ratio", "ratio"},
                           traced_p50 / quantile(run.op_ms, 0.5)});
        metrics.push_back({{"trace.path_coverage", "ratio"},
                           median(coverage)});
    }

    const double failed_ratio = static_cast<double>(run.failed) /
                                static_cast<double>(run.attempted);
    shown.push_back({{"failed_op_ratio", "ratio"}, failed_ratio});
    std::cout << "# perfbench workload=" << args.workload
              << " seed=" << args.seed << " trace=" << args.trace
              << " threads=" << threads << " nproc=" << nproc
              << " build=" << PERFBENCH_BUILD_TYPE
              << " untraced_ops=" << run.op_ms.size()
              << " traced_ops=" << run.traced_op_ms.size()
              << " failed=" << run.failed
              << " failed_op_ratio=" << failed_ratio
              << " reference=" << (reference_ok ? "ok" : "BAD")
              << " digest=" << std::hex << digest << std::dec
              << " golden=" << (!golden_ok                  ? "MISMATCH"
                                : lookup == Golden::Found ? "match"
                                                          : "none")
              << "\n";
    for (const auto *list : {&metrics, &shown}) {
        for (const auto &[m, v] : *list)
            std::cout << "#   " << std::left << std::setw(34) << m.name
                      << std::right << std::setw(16)
                      << std::setprecision(6) << v << " " << m.unit
                      << "\n";
    }

    const bool correct = reference_ok && golden_ok && run.failed == 0;
    std::cout << std::setprecision(17) << "{\"correct\": "
              << (correct ? "true" : "false")
              << ", \"attempted\": " << run.attempted
              << ", \"failed\": " << run.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].second)
                             ? metrics[i].second
                             : 0.0;
        std::cout << (i ? ", " : "") << "\"" << metrics[i].first.name
                  << "\": {\"value\": " << v << ", \"unit\": \""
                  << metrics[i].first.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
}
