/**
 * @file
 * Shared runtime helpers for the figure drivers: a `--serial` flag
 * that pins the global thread pool to one thread (the debugging
 * fallback), `--json PATH` option parsing, rejection of any argument
 * no option consumes, a wall-clock timer so drivers can report the
 * parallel-vs-serial speedup of the evaluation runtime, the batched
 * design x workload result matrix the sweep drivers share, and a
 * machine-readable JSON dump of results (full-precision doubles, so a
 * byte-compare of two dumps is a bit-identity check — the smoke
 * ctests diff the serial and parallel dumps of every sweep driver).
 */

#ifndef HIGHLIGHT_BENCH_RUNTIME_FLAGS_HH
#define HIGHLIGHT_BENCH_RUNTIME_FLAGS_HH

#include <chrono>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/evaluator.hh"
#include "core/frontier_io.hh"
#include "runtime/thread_pool.hh"

namespace highlight
{

/**
 * A design x workload result matrix evaluated as one batch through
 * the evaluator's parallel runtime.
 */
class EvalMatrix
{
  public:
    EvalMatrix(const Evaluator &ev,
               const std::vector<const Accelerator *> &designs,
               const std::vector<GemmWorkload> &suite)
        : num_workloads_(suite.size())
    {
        std::vector<EvalJob> jobs;
        jobs.reserve(designs.size() * suite.size());
        for (const Accelerator *d : designs) {
            for (const auto &w : suite)
                jobs.push_back({d, w});
        }
        results_ = ev.runBatch(jobs);
    }

    const EvalResult &
    at(std::size_t design, std::size_t workload) const
    {
        return results_[design * num_workloads_ + workload];
    }

    const std::vector<EvalResult> &flat() const { return results_; }

  private:
    std::size_t num_workloads_;
    std::vector<EvalResult> results_;
};

/** True when `flag` appears among the arguments. */
inline bool
parseFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    }
    return false;
}

/** True when `--serial` appears among the arguments. */
inline bool
parseSerialFlag(int argc, char **argv)
{
    return parseFlag(argc, argv, "--serial");
}

/**
 * Value of `<flag> PATH` or `<flag>=PATH` (e.g. --json out.json,
 * --json=out.json); "" when absent or given with an empty value.
 */
inline std::string
parseOptionValue(int argc, char **argv, const char *flag)
{
    const std::size_t flag_len = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
            return argv[i + 1];
        if (std::strncmp(argv[i], flag, flag_len) == 0 &&
            argv[i][flag_len] == '=')
            return argv[i] + flag_len + 1;
    }
    return "";
}

/**
 * Fatal on any argument that no driver option consumes. Every driver
 * takes `--serial`, `--threads N` and `--json PATH`; `value_options`
 * names the value options it adds (e.g. "--frontier-json"). A value
 * option consumes `--opt=V` or `--opt V`. A typo or a retired flag
 * must not silently run a different configuration than the one the
 * caller asked for.
 */
inline void
rejectUnknownArgs(int argc, char **argv,
                  std::initializer_list<const char *> value_options = {})
{
    std::vector<std::string_view> options = {"--threads", "--json"};
    options.insert(options.end(), value_options.begin(),
                   value_options.end());
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--serial")
            continue;
        bool known = false;
        for (const std::string_view opt : options) {
            if (arg == opt) {
                ++i; // the value is the next argument
                known = true;
                break;
            }
            if (arg.size() > opt.size() && arg.substr(0, opt.size()) == opt &&
                arg[opt.size()] == '=') {
                known = true;
                break;
            }
        }
        if (!known)
            fatal(msgOf("unknown argument ", arg));
    }
}

/**
 * Thread count requested on the command line: `--serial` pins one
 * thread, `--threads N` pins N (strictly parsed, like the
 * HIGHLIGHT_THREADS env knob), otherwise 0 = default resolution (env
 * override, else hardware concurrency). A malformed `--threads` value
 * is a user error and fatal — a driver silently falling back would
 * make a "parallel" measurement on the wrong pool size.
 */
inline int
parseThreadsFlag(int argc, char **argv)
{
    // `--threads N` / `--threads=N`; a bare or empty `--threads` is
    // fatal: silently running default-parallel on a typo would be the
    // exact wrong-pool-size measurement this parser exists to
    // prevent.
    const std::string v = parseOptionValue(argc, argv, "--threads");
    int requested = 0;
    if (!v.empty()) {
        long long threads = 0;
        if (!parsePositiveInt(v.c_str(), 4096, &threads))
            fatal(msgOf("--threads ", v,
                        ": expected a positive integer <= 4096"));
        requested = static_cast<int>(threads);
    } else if (parseFlag(argc, argv, "--threads") ||
               parseFlag(argc, argv, "--threads=")) {
        fatal("--threads requires a value");
    }
    if (parseSerialFlag(argc, argv)) {
        if (requested > 1)
            fatal(msgOf("--serial contradicts --threads ", requested));
        return 1;
    }
    return requested;
}

/** Apply `--serial` / `--threads N` to the global runtime pool. */
inline void
configureRuntimeThreads(int argc, char **argv)
{
    ThreadPool::setGlobalThreads(parseThreadsFlag(argc, argv));
}

/**
 * Rows per shared operand-B pass requested on the command line:
 * `--group-rows N` (strictly parsed), otherwise 0 = the simulator's
 * auto resolution. Purely a host-performance knob — the microsim's
 * outputs and counters are byte-identical at any value — but a
 * malformed value is fatal like `--threads`, for the same reason: a
 * silently ignored typo would time the wrong configuration.
 */
inline int
parseGroupRowsFlag(int argc, char **argv)
{
    const std::string v = parseOptionValue(argc, argv, "--group-rows");
    if (!v.empty()) {
        long long rows = 0;
        if (!parsePositiveInt(v.c_str(), 1 << 20, &rows))
            fatal(msgOf("--group-rows ", v,
                        ": expected a positive integer <= 2^20"));
        return static_cast<int>(rows);
    }
    if (parseFlag(argc, argv, "--group-rows") ||
        parseFlag(argc, argv, "--group-rows="))
        fatal("--group-rows requires a value");
    return 0;
}

/**
 * Resolved thread policy for the drivers that time a parallel-vs-
 * serial pass (fig14, fig15): both `--serial` and `--threads 1` pin
 * one thread AND skip the timing pass (comparing a 1-thread pool
 * against itself is meaningless). After the serial timing leg, the
 * driver restores the pool with setGlobalThreads(requested).
 */
struct DriverThreads
{
    int requested = 0;        ///< setGlobalThreads argument (0 = default).
    bool serial_only = false; ///< Skip the parallel-vs-serial pass.
};

inline DriverThreads
configureTimedDriverThreads(int argc, char **argv)
{
    DriverThreads t;
    t.requested = parseThreadsFlag(argc, argv);
    t.serial_only = t.requested == 1;
    ThreadPool::setGlobalThreads(t.requested);
    return t;
}

/**
 * Dump eval results as a JSON array. Doubles print with max_digits10
 * so two dumps are byte-identical iff the results are bit-identical.
 */
inline bool
writeResultsJson(const std::string &path,
                 const std::vector<EvalResult> &results)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << std::setprecision(17);
    out << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const EvalResult &r = results[i];
        out << "  {\"design\": " << jsonQuote(r.design)
            << ", \"workload\": " << jsonQuote(r.workload)
            << ", \"supported\": " << (r.supported ? "true" : "false")
            << ", \"cycles\": " << r.cycles
            << ", \"energy_pj\": " << r.totalEnergyPj()
            << ", \"edp\": " << r.edp() << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return static_cast<bool>(out);
}

/** As writeResultsJson, for whole-DNN sweep results. */
inline bool
writeDnnResultsJson(const std::string &path,
                    const std::vector<DnnEvalResult> &results)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << std::setprecision(17);
    out << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const DnnEvalResult &r = results[i];
        out << "  {\"design\": " << jsonQuote(r.design)
            << ", \"supported\": " << (r.supported ? "true" : "false")
            << ", \"accuracy_loss\": " << r.accuracy_loss
            << ", \"total_cycles\": " << r.total_cycles
            << ", \"total_energy_pj\": " << r.total_energy_pj << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return static_cast<bool>(out);
}

/**
 * Dump one driver's TextTable for `--json PATH` (see
 * TextTable::printJson for the byte-compare property). Used by the
 * table/ablation drivers, whose tabulated strings are their entire
 * result set.
 */
inline bool
writeTableJson(const std::string &path, const TextTable &table)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    table.printJson(out);
    return static_cast<bool>(out);
}

/** As writeTableJson for drivers that emit several tables: an array. */
inline bool
writeTablesJson(const std::string &path,
                const std::vector<const TextTable *> &tables)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "[\n";
    for (std::size_t i = 0; i < tables.size(); ++i) {
        tables[i]->printJson(out);
        if (i + 1 < tables.size())
            out << ",\n";
    }
    out << "]\n";
    return static_cast<bool>(out);
}

/** Monotonic wall-clock stopwatch. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start_).count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace highlight

#endif // HIGHLIGHT_BENCH_RUNTIME_FLAGS_HH
