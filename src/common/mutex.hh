/**
 * @file
 * Annotated mutex primitives for the thread-safety analysis.
 *
 * libstdc++'s std::mutex / std::lock_guard carry no capability
 * attributes, so Clang's -Wthread-safety cannot see through them.
 * These are the thinnest possible wrappers that the analysis *can*
 * see through — the same idiom Abseil and Chromium use:
 *
 *   Mutex mu_;                  // the capability
 *   int x GUARDED_BY(mu_);      // compiler-enforced protection
 *   { MutexLock lock(mu_); ++x; }  // scoped acquire/release
 *
 * CondVar pairs with MutexLock the way std::condition_variable pairs
 * with std::unique_lock. Waits are written as explicit loops —
 * `while (!pred) cv.wait(lock);` — never with a predicate lambda:
 * the analysis treats a lambda as a separate unannotated function,
 * so guarded reads inside it would (correctly) fail to compile.
 *
 * Everything is a zero-cost veneer over the std primitives: the
 * wrappers add no state, no branches, and vanish at -O1.
 */

#ifndef HIGHLIGHT_COMMON_MUTEX_HH
#define HIGHLIGHT_COMMON_MUTEX_HH

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hh"

namespace highlight
{

/** An annotated std::mutex: the capability the analysis tracks. */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() ACQUIRE()
    {
        mu_.lock();
    }

    void
    unlock() RELEASE()
    {
        mu_.unlock();
    }

  private:
    friend class MutexLock;
    std::mutex mu_;
};

/**
 * Scoped acquire/release of a Mutex — the only way the runtime takes
 * its locks, because a scoped capability is what the analysis can
 * prove released on every path (including exceptions).
 */
class SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) ACQUIRE(mu) : lock_(mu.mu_) {}

    ~MutexLock() RELEASE() {}

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    friend class CondVar;
    std::unique_lock<std::mutex> lock_;
};

/**
 * Condition variable over a MutexLock. wait() atomically releases
 * the lock while sleeping and reacquires it before returning, so
 * from the analysis's point of view the capability is held across
 * the call — which is exactly the guarantee the caller observes.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Sleep until notified; the lock is held again on return. */
    void
    wait(MutexLock &lock)
    {
        cv_.wait(lock.lock_);
    }

    void
    notifyAll() noexcept
    {
        cv_.notify_all();
    }

  private:
    std::condition_variable cv_;
};

} // namespace highlight

#endif // HIGHLIGHT_COMMON_MUTEX_HH
