#include "runtime/thread_pool.hh"

#include <algorithm>
#include <memory>

#include "common/env.hh"
#include "common/logging.hh"

namespace highlight
{

namespace
{

/**
 * Set while a pool worker (or the caller inside parallelFor) is
 * executing job indices: nested parallelFor calls run inline instead
 * of re-entering the pool, which would deadlock on the single current
 * job slot.
 */
thread_local bool tls_in_parallel_region = false;

Mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool GUARDED_BY(g_pool_mu);

} // namespace

int
ThreadPool::defaultThreadCount()
{
    // Strict full-string parsing: std::atoi would silently accept
    // trailing junk ("4x" -> 4) and overflow is UB. The bound keeps a
    // typo'd huge count from fork-bombing the process with threads.
    // A bad value is fatal.
    const long long v =
        positiveIntFromEnv("HIGHLIGHT_THREADS", /*max_value=*/4096,
                           /*fallback=*/0);
    if (v > 0)
        return static_cast<int>(v);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool &
ThreadPool::global()
{
    MutexLock lock(g_pool_mu);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>();
    return *g_pool;
}

void
ThreadPool::setGlobalThreads(int num_threads)
{
    MutexLock lock(g_pool_mu);
    g_pool = std::make_unique<ThreadPool>(num_threads);
}

ThreadPool::ThreadPool(int num_threads)
{
    num_threads_ = num_threads > 0 ? num_threads : defaultThreadCount();
}

void
ThreadPool::startWorkers()
{
    // The caller participates in every job, so spawn one fewer worker
    // than the target concurrency.
    std::vector<std::thread> spawned;
    spawned.reserve(static_cast<std::size_t>(num_threads_ - 1));
    try {
        for (int i = 1; i < num_threads_; ++i)
            spawned.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // No job is posted before the workers start, so the ones that
        // did start are idle: stop and join them, then clear the stop.
        {
            MutexLock lock(mu_);
            stop_ = true;
        }
        work_cv_.notifyAll();
        for (auto &w : spawned)
            w.join();
        MutexLock lock(mu_);
        stop_ = false;
        throw;
    }
    workers_ = std::move(spawned);
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mu_);
        stop_ = true;
    }
    work_cv_.notifyAll();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::drain(Job &job)
{
    for (;;) {
        const std::size_t i =
            job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.n)
            break;
        try {
            (*job.fn)(i);
        } catch (...) {
            MutexLock lock(job.err_mu);
            if (!job.error || i < job.error_index) {
                job.error = std::current_exception();
                job.error_index = i;
            }
        }
        job.done.fetch_add(1, std::memory_order_acq_rel);
    }
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen_seq = 0;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            MutexLock lock(mu_);
            while (!stop_ && !(job_ && job_seq_ != seen_seq))
                work_cv_.wait(lock);
            if (stop_)
                return;
            job = job_;
            seen_seq = job_seq_;
        }
        tls_in_parallel_region = true;
        drain(*job);
        tls_in_parallel_region = false;
        if (job->done.load(std::memory_order_acquire) >= job->n) {
            // Bridge the mutex so the notify cannot slip between the
            // waiter's predicate check and its sleep (lost wakeup).
            { MutexLock lock(mu_); }
            done_cv_.notifyAll();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    // Serial fallback: a one-thread pool, a single item, or a nested
    // call from inside a parallel region all run inline. Exceptions
    // propagate directly.
    if (num_threads_ <= 1 || n == 1 || tls_in_parallel_region) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::call_once(started_, [this] { startWorkers(); });

    // Heap-shared so straggler workers holding a reference after the
    // job completes never touch freed memory.
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->n = n;
    {
        MutexLock lock(mu_);
        job_ = job;
        ++job_seq_;
    }
    work_cv_.notifyAll();

    // The caller works too.
    tls_in_parallel_region = true;
    drain(*job);
    tls_in_parallel_region = false;

    {
        MutexLock lock(mu_);
        while (job->done.load(std::memory_order_acquire) < job->n)
            done_cv_.wait(lock);
        // A concurrent caller may have posted its own job since; that
        // one must keep its workers.
        if (job_ == job)
            job_ = nullptr;
    }

    // Read the failure under its mutex: workers that lost the race to
    // set it may still be inside the catch block.
    std::exception_ptr err;
    {
        MutexLock lock(job->err_mu);
        err = job->error;
    }
    if (err)
        std::rethrow_exception(err);
}

void
ThreadPool::parallelForGroups(
    std::size_t total, std::size_t group,
    const std::function<void(std::size_t, std::size_t)> &fn)
{
    if (group == 0)
        fatal("ThreadPool::parallelForGroups: group size 0");
    if (total == 0)
        return;
    // The fixed partition: group g covers [g*group, min(+group, total)).
    // Only (total, group) determine it, so results that are
    // deterministic per group are deterministic at any thread count.
    const std::size_t num_groups = (total + group - 1) / group;
    parallelFor(num_groups, [&](std::size_t g) {
        const std::size_t begin = g * group;
        const std::size_t end = std::min(begin + group, total);
        fn(begin, end);
    });
}

} // namespace highlight
