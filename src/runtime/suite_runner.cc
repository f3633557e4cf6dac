/**
 * @file
 * evaluateSuite (declared in accel/harness.hh) implemented on the
 * parallel evaluation runtime. It lives here, not in accel/harness.cc,
 * because the runtime layers above accel/: the harness owns the
 * fairness rules (evaluateBest), while the scheduling of a whole
 * design x workload matrix belongs to the runtime.
 */

#include "accel/harness.hh"
#include "runtime/batch_runner.hh"

namespace highlight
{

std::vector<SuiteResult>
evaluateSuite(const std::vector<const Accelerator *> &designs,
              const std::vector<GemmWorkload> &suite)
{
    // One flat batch, design-major, on the global thread pool; a
    // suite-local cache dedupes repeated (design, shape, sparsity)
    // cells within the matrix. Callers that sweep repeatedly should
    // prefer Evaluator::runBatch, whose cache persists across batches.
    std::vector<EvalJob> jobs;
    jobs.reserve(designs.size() * suite.size());
    for (const Accelerator *design : designs) {
        for (const auto &w : suite)
            jobs.push_back({design, w});
    }
    EvalCache cache;
    const std::vector<EvalResult> flat = evaluateBatch(jobs, cache);

    std::vector<SuiteResult> all;
    all.reserve(designs.size());
    std::size_t i = 0;
    for (const Accelerator *design : designs) {
        SuiteResult sr;
        sr.design = design->name();
        sr.results.assign(flat.begin() + static_cast<std::ptrdiff_t>(i),
                          flat.begin() +
                              static_cast<std::ptrdiff_t>(i + suite.size()));
        i += suite.size();
        all.push_back(std::move(sr));
    }
    return all;
}

} // namespace highlight
