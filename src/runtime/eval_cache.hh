/**
 * @file
 * Memoization of analytical evaluations.
 *
 * The analytical engine is a pure function of (design, workload shape,
 * operand sparsity): the workload's display name never influences the
 * numbers. DNNs repeat layer shapes heavily (ResNet-50's residual
 * stages, every transformer block), and the figure drivers re-evaluate
 * the dense TC baseline per comparison, so memoizing on a canonical
 * workload key collapses most of the work. Cached results are returned
 * with the requesting workload's name patched in, making a cache hit
 * indistinguishable from a fresh evaluation.
 *
 * The table lives in memory for the life of its owner and is never
 * evicted: one figure sweep holds a few hundred unique keys.
 */

#ifndef HIGHLIGHT_RUNTIME_EVAL_CACHE_HH
#define HIGHLIGHT_RUNTIME_EVAL_CACHE_HH

#include <cstdint>
#include <string>
#include <unordered_map>

#include "accel/harness.hh"
#include "accel/workload.hh"
#include "common/mutex.hh"

namespace highlight
{

/**
 * Cache counters. All counters are updated under the same lock as the
 * map itself, so they are exact (not merely approximate) under
 * concurrent use: every lookup is counted as exactly one hit or one
 * miss, and hits + misses == lookups() always holds, at any thread
 * count.
 */
struct EvalCacheStats
{
    std::uint64_t hits = 0;       ///< Lookup hits + dedupe noteHit()s.
    std::uint64_t misses = 0;     ///< Lookup misses.
    std::uint64_t insertions = 0; ///< Fresh entries added by insert().

    /** Total lookups (every one is a hit or a miss). */
    std::uint64_t lookups() const { return hits + misses; }

    /** hits / lookups, 0 when nothing was looked up. */
    double hitRate() const
    {
        const std::uint64_t n = lookups();
        return n == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(n);
    }
};

/** Thread-safe (design, workload) -> EvalResult memo table. */
class EvalCache
{
  public:
    /**
     * Canonical cache key, as fixed-width binary fields: the design
     * name's length and bytes; M, K and N as int64; then per operand
     * its kind byte, followed by the density's bit pattern for an
     * unstructured operand, or the rank count and each rank's G and H
     * (rank 0 first) for an HSS operand, and nothing more for a dense
     * one. Excludes the workload's display name, a dense operand's
     * density field and an HSS operand's derived density. Two jobs
     * share a key exactly when their design, shape and those operand
     * fields are equal. The bytes are an in-memory detail: nothing
     * stores or parses them.
     */
    static std::string keyOf(const std::string &design,
                             const GemmWorkload &w);

    /**
     * Memoized evaluateBest(): returns the cached result (name
     * patched to w.name) or computes, inserts, and returns it.
     */
    EvalResult evaluate(const Accelerator &accel, const GemmWorkload &w);

    /** Copy of the cached result for key, name-patched; counts a hit.
     *  Returns false (and counts a miss) when absent. */
    bool lookup(const std::string &key, const std::string &workload_name,
                EvalResult *out);

    /** Insert a computed result (first insertion wins). */
    void insert(const std::string &key, const EvalResult &r);

    /** Count a hit without a lookup (a key repeated within a batch). */
    void noteHit();

    EvalCacheStats stats() const;
    std::size_t size() const;

    void clear(); ///< Drops entries and resets the counters.

  private:
    mutable Mutex mu_;
    std::unordered_map<std::string, EvalResult> map_ GUARDED_BY(mu_);
    EvalCacheStats stats_ GUARDED_BY(mu_);
};

} // namespace highlight

#endif // HIGHLIGHT_RUNTIME_EVAL_CACHE_HH
