/**
 * @file
 * A deterministic thread pool with parallel_for / parallel_map.
 *
 * The pool exists so the embarrassingly parallel layers of the
 * evaluation pipeline (per-layer DNN evals, rank ablations, Pareto
 * sweeps, figure drivers) can use every core while staying bit-exact
 * with the serial code: work items are indexed, each index writes its
 * result into its own slot, and all reductions happen afterwards in
 * index order on the calling thread. There is no work stealing and no
 * order-dependent accumulation, so the numeric output is independent
 * of the thread count.
 *
 * Thread count resolution: an explicit constructor argument wins,
 * otherwise the `HIGHLIGHT_THREADS` environment variable, otherwise
 * std::thread::hardware_concurrency(). A count of 1 runs every task
 * inline on the caller (the serial fallback path for debugging).
 */

#ifndef HIGHLIGHT_RUNTIME_THREAD_POOL_HH
#define HIGHLIGHT_RUNTIME_THREAD_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/mutex.hh"

namespace highlight
{

/**
 * Fixed-size pool of persistent worker threads.
 */
class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count; 0 resolves via
     *        defaultThreadCount() (HIGHLIGHT_THREADS env override,
     *        else hardware concurrency).
     */
    explicit ThreadPool(int num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** The resolved thread count (>= 1). */
    int numThreads() const { return num_threads_; }

    /**
     * HIGHLIGHT_THREADS if set to a positive integer, otherwise
     * hardware concurrency (at least 1).
     */
    static int defaultThreadCount();

    /**
     * The process-wide pool shared by the evaluation pipeline.
     * Rebuilt by setGlobalThreads().
     */
    static ThreadPool &global();

    /**
     * Rebuild the global pool with the given thread count (0 =
     * default resolution). Used by the bench drivers' --serial flag
     * and by tests; call only from single-threaded control flow.
     */
    static void setGlobalThreads(int num_threads);

    /**
     * Run fn(i) for every i in [0, n), blocking until all complete.
     *
     * The caller participates in the work. If any invocation throws,
     * the exception of the lowest failing index is rethrown here after
     * every claimed index has finished, so which error a call reports
     * never depends on the thread count; the pool stays usable. Nested
     * calls from inside a worker run inline (serially) to avoid
     * deadlock. Several threads may call concurrently on one pool:
     * each call covers its own range exactly once, and the workers
     * serve the most recently posted call.
     *
     * @param grain Indices claimed per atomic fetch. Each claim takes
     *        a contiguous [begin, begin+grain) block, so on very
     *        fine-grained sweeps a larger grain cuts the shared-counter
     *        traffic by that factor. 0 resolves via autoGrain(). The
     *        grain never affects the results — indices still write
     *        into per-index slots — only the claiming pattern.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn,
                     std::size_t grain = 0);

    /**
     * The grain parallelFor uses when none is given: n / (8 * threads),
     * clamped to [1, 64]. Eight claims per thread keeps the load
     * balanced when per-index cost varies; the cap bounds the tail
     * imbalance on huge ranges.
     */
    std::size_t autoGrain(std::size_t n) const;

    /**
     * Run fn(begin, end) for every fixed contiguous group
     * [g*group, min((g+1)*group, total)), blocking until all complete.
     * The partition depends only on (total, group) — never on the
     * thread count or scheduling — so any group-local computation that
     * is deterministic per group is deterministic overall. One group is
     * one work item (grain 1): group bodies are expected to be
     * milliseconds of work. Inherits parallelFor's exception and
     * nested-call behavior.
     */
    void parallelForGroups(
        std::size_t total, std::size_t group,
        const std::function<void(std::size_t, std::size_t)> &fn);

    /**
     * Deterministic map: out[i] = fn(i) for i in [0, n). The result
     * type must be default-constructible; slots are written in place
     * so the output order never depends on scheduling.
     */
    template <typename Fn>
    auto
    parallelMap(std::size_t n, Fn &&fn, std::size_t grain = 0)
        -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>>
    {
        using T = std::decay_t<decltype(fn(std::size_t{0}))>;
        std::vector<T> out(n);
        parallelFor(n, [&](std::size_t i) { out[i] = fn(i); }, grain);
        return out;
    }

  private:
    /** One parallelFor invocation's shared state. */
    struct Job
    {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::size_t n = 0;
        std::size_t grain = 1;    ///< Indices claimed per fetch_add.
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        Mutex err_mu;
        /** Failure of the lowest failing index across all workers. */
        std::exception_ptr error GUARDED_BY(err_mu);
        std::size_t error_index GUARDED_BY(err_mu) = 0;
    };

    void workerLoop();
    /** Claim and run indices of `job` until exhausted. */
    static void drain(Job &job);

    int num_threads_ = 1; ///< Immutable after construction.
    std::vector<std::thread> workers_;

    Mutex mu_;
    CondVar work_cv_; ///< Signals a new job / stop.
    CondVar done_cv_; ///< Signals job completion.
    /** Current job. */
    std::shared_ptr<Job> job_ GUARDED_BY(mu_);
    /** Bumped per job. */
    std::uint64_t job_seq_ GUARDED_BY(mu_) = 0;
    bool stop_ GUARDED_BY(mu_) = false;
};

/**
 * A fixed set of reusable per-worker scratch objects for parallelFor
 * bodies that need mutable state too expensive to rebuild per index
 * (simulator row workers, scratch buffers, local accumulators).
 *
 * All slots are constructed eagerly, in slot order, on the calling
 * thread — so construction is deterministic and the parallel region
 * itself never allocates a slot. Inside the loop body, acquire() hands
 * the thread an exclusive slot and the returned lease releases it when
 * destroyed. At most numThreads() threads execute one parallelFor
 * concurrently (and no thread processes two indices at once), so a set
 * sized min(n, pool.numThreads()) can never run dry; running dry is a
 * sizing bug and panics rather than blocks. acquire()/release are a
 * mutex-guarded pop/push of a pre-reserved stack: no allocation in the
 * steady state.
 *
 * After the loop, slots remain valid and iterable in construction
 * order (size()/slot(i)) so per-slot results can be reduced
 * deterministically on the calling thread.
 */
template <typename T>
class WorkerSlots
{
  public:
    /**
     * Build `count` slots; `make(i)` must return a
     * std::unique_ptr<T> for slot i.
     */
    template <typename Make>
    WorkerSlots(std::size_t count, Make &&make)
    {
        slots_.reserve(count);
        free_.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            slots_.push_back(make(i));
        // Stack the slots so slot 0 is acquired first: a serial
        // (1-thread) loop then reuses slot 0 for every index.
        for (std::size_t i = count; i > 0; --i)
            free_.push_back(slots_[i - 1].get());
    }

    WorkerSlots(const WorkerSlots &) = delete;
    WorkerSlots &operator=(const WorkerSlots &) = delete;

    /** Exclusive use of one slot for the lease's lifetime. */
    class Lease
    {
      public:
        Lease(WorkerSlots &owner, T *slot)
            : owner_(&owner), slot_(slot)
        {
        }
        ~Lease()
        {
            if (owner_)
                owner_->release(slot_);
        }
        Lease(Lease &&other) noexcept
            : owner_(other.owner_), slot_(other.slot_)
        {
            other.owner_ = nullptr;
            other.slot_ = nullptr;
        }
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        Lease &operator=(Lease &&) = delete;

        T *operator->() const { return slot_; }
        T &operator*() const { return *slot_; }

      private:
        WorkerSlots *owner_;
        T *slot_;
    };

    /** Pop a free slot; panics if every slot is in use (sizing bug). */
    Lease
    acquire()
    {
        MutexLock lock(mu_);
        if (free_.empty())
            panic(msgOf("WorkerSlots: all ", slots_.size(),
                        " slots in use — more concurrent workers than "
                        "slots"));
        T *slot = free_.back();
        free_.pop_back();
        return Lease(*this, slot);
    }

    /** Slot count (== the constructor's `count`). */
    std::size_t size() const { return slots_.size(); }

    /** Slot `i` in construction order, for post-loop reduction. */
    T &slot(std::size_t i) { return *slots_[i]; }
    const T &slot(std::size_t i) const { return *slots_[i]; }

  private:
    void
    release(T *slot)
    {
        MutexLock lock(mu_);
        free_.push_back(slot);
    }

    /// Immutable after construction (the slot objects themselves are
    /// exclusively owned by one lease at a time, not by this mutex).
    std::vector<std::unique_ptr<T>> slots_;
    Mutex mu_;
    /** Free stack; pre-reserved so push/pop never allocate. */
    std::vector<T *> free_ GUARDED_BY(mu_);
};

} // namespace highlight

#endif // HIGHLIGHT_RUNTIME_THREAD_POOL_HH
