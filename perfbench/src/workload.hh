/**
 * @file
 * The benchmark's workloads. Each one owns its seeded inputs and the
 * result of its last op. At set-up it builds a serial reference once;
 * the harness compares the fingerprint of every op's result with the
 * reference's, bit for bit, after the op's timer stops.
 *
 * An op runs in one of two forms. Untraced, it calls the library's top
 * entry point (Evaluator::runDnn, Evaluator::runBatch,
 * HighlightSimulator::run). Traced, it recomposes that entry point from
 * the public calls beneath it and times each call from outside; both
 * forms must produce the same bits.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** Per-layer values of one traced op, keyed by metric name. */
using LayerSample = std::map<std::string, double>;

/**
 * Key a workload sets in its LayerSample: the summed duration (ms) of
 * the spans along the op's blocking path, which the harness divides by
 * the op's wall time to report trace.path_coverage.
 */
inline constexpr const char *kPathMs = "trace.path_ms";

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Generate the inputs from `seed` and build the models. Timed as
     * setup_s, together with the workload's construction and the pool
     * start-up.
     */
    virtual void setup(std::uint64_t seed) = 0;

    /**
     * Build the reference results serially (untimed, once, after
     * setup) and store their fingerprint in `*fingerprint`. Returns
     * false when the reference fails its own sanity check, with the
     * reason on stderr.
     */
    virtual bool buildReference(std::string *fingerprint) = 0;

    /** Run one op; `traced` selects the recomposed, span-timed form. */
    virtual void runOp(bool traced) = 0;

    /** The fingerprint of the last op's results (see fingerprint.hh). */
    virtual std::string lastFingerprint() const = 0;

    /** Per-layer values of the last op, which must have been traced. */
    virtual LayerSample lastLayers() const = 0;

    /** Flip one bit of the last op's results (checker self-test). */
    virtual void corruptLast() = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** A fresh workload by name; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

std::unique_ptr<Workload> makeParetoSweep();
std::unique_ptr<Workload> makeGemmMatrix();
std::unique_ptr<Workload> makeMicrosimFig16();

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
