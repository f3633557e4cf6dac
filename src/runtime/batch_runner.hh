/**
 * @file
 * Batched evaluation of heterogeneous (design, workload) jobs.
 *
 * The analytical engine is a pure function of (design, workload shape,
 * operand sparsity): the workload's display name never influences the
 * numbers. DNNs repeat layer shapes heavily (ResNet-50's residual
 * stages, every transformer block), so evaluateBatch() evaluates each
 * distinct key of a batch once and copies the result to the repeats.
 * The batch is one plain loop on the calling thread: a figure's
 * batches need a few dozen evaluations each, far less work than waking
 * a thread pool costs. Nothing is kept from one call to the next.
 */

#ifndef HIGHLIGHT_RUNTIME_BATCH_RUNNER_HH
#define HIGHLIGHT_RUNTIME_BATCH_RUNNER_HH

#include <string>
#include <vector>

#include "accel/harness.hh"
#include "accel/workload.hh"

namespace highlight
{

/** One evaluation job: a design applied to a workload. */
struct EvalJob
{
    const Accelerator *design = nullptr;
    GemmWorkload workload;
};

/**
 * Canonical dedupe key, as fixed-width binary fields: the design
 * name's length and bytes; M, K and N as int64; then per operand its
 * kind byte, followed by the density's bit pattern for an
 * unstructured operand, or the rank count and each rank's G and H
 * (rank 0 first) for an HSS operand, and nothing more for a dense
 * one. Excludes the workload's display name, a dense operand's
 * density field and an HSS operand's derived density. Two jobs share
 * a key exactly when their design, shape and those operand fields are
 * equal. The bytes are an in-memory detail: nothing stores or parses
 * them.
 */
std::string keyOf(const std::string &design, const GemmWorkload &w);

/**
 * Evaluate every job with evaluateBest(), returning the results in
 * input order. The loop keys every job, then walks the jobs in input
 * order: the first job with a key is evaluated, and each later job
 * with that key gets a copy of its result with the job's own workload
 * name patched in, which is indistinguishable from evaluating it.
 *
 * A job with a null design is fatal, before anything is evaluated. An
 * evaluation that throws propagates at once, so the error is that of
 * the lowest-index failing job.
 */
std::vector<EvalResult> evaluateBatch(const std::vector<EvalJob> &jobs);

} // namespace highlight

#endif // HIGHLIGHT_RUNTIME_BATCH_RUNNER_HH
