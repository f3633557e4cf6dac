/**
 * @file
 * Batched evaluation of heterogeneous (design, workload) jobs.
 *
 * evaluateBatch() is one synchronous function in five steps: key every
 * job with EvalCache::keyOf; dedupe in input order (a repeated key
 * counts a hit via noteHit, a first occurrence goes through the
 * cache's lookup); evaluate only the unique misses with
 * ThreadPool::parallelMap; insert those results into the cache in
 * input order; and fan every result out to its jobs with each job's
 * workload name patched in. Every cache call happens on the calling
 * thread in input order, so the results and the hit/miss/insert
 * counters are bit-identical at any thread count.
 */

#ifndef HIGHLIGHT_RUNTIME_BATCH_RUNNER_HH
#define HIGHLIGHT_RUNTIME_BATCH_RUNNER_HH

#include <vector>

#include "runtime/eval_cache.hh"
#include "runtime/thread_pool.hh"

namespace highlight
{

/** One evaluation job: a design applied to a workload. */
struct EvalJob
{
    const Accelerator *design = nullptr;
    GemmWorkload workload;
};

/**
 * Evaluate every job with evaluateBest() through `cache`, returning the
 * results in input order. A job whose key is already cached, or that
 * repeats an earlier job of this batch, counts as a hit; each unique
 * uncached key counts as one miss, one evaluation and one insertion.
 *
 * If evaluations throw, the exception of the lowest-index failing job
 * propagates and nothing from this batch is inserted; the cache stays
 * usable. Concurrent calls on one cache are safe and return correct
 * results, but a key missing in both may be evaluated by each.
 * A job with a null design is fatal.
 */
std::vector<EvalResult> evaluateBatch(const std::vector<EvalJob> &jobs,
                                      EvalCache &cache,
                                      ThreadPool &pool = ThreadPool::global());

} // namespace highlight

#endif // HIGHLIGHT_RUNTIME_BATCH_RUNNER_HH
