/**
 * @file
 * RAII advisory lockfile for cross-process critical sections.
 *
 * The classic shared-persistent-memo problem (ccache-style object
 * stores, build caches): N independent processes flush one on-disk
 * table, and an unlocked read-merge-write turns into last-writer-wins
 * data loss. FileLock serializes those flushes with an advisory
 * lockfile next to the protected path:
 *
 *  - The lock is *claimed* by creating a private file next to the
 *    lockfile, stamping the holder's pid into it, and `link()`ing it
 *    to the lockfile name — atomic and exclusive on POSIX
 *    filesystems — so the lockfile never exists without its stamp.
 *  - The creator holds `flock(LOCK_EX)` on the open fd from before
 *    the link. The flock dies with the process, which is what makes
 *    stale-lock takeover race-free: a would-be stealer must first win
 *    the flock on the *existing* lockfile's inode before it may
 *    unlink it, so two stealers can never both "clean up" and both
 *    think they own the lock, and a claim in flight is never mistaken
 *    for a dead holder.
 *  - Staleness is decided by pid liveness: a lockfile whose recorded
 *    pid no longer exists (`kill(pid, 0)` -> ESRCH) was left behind
 *    by a crashed holder and is taken over; a live holder's lock is
 *    never stolen.
 *  - acquire() retries with bounded exponential backoff; contention
 *    past the bound fails (returns false) rather than blocking
 *    forever or clobbering unlocked.
 *
 * The destructor releases a held lock, so an exception thrown inside
 * the critical section cannot leak the lockfile (a crash can, but
 * that is exactly what the stale-pid takeover handles).
 */

#ifndef HIGHLIGHT_COMMON_FILE_LOCK_HH
#define HIGHLIGHT_COMMON_FILE_LOCK_HH

#include <chrono>
#include <string>

#include "common/thread_annotations.hh"

namespace highlight
{

/** True when `pid` names a live process (kill(pid, 0) succeeds, or
 *  fails with EPERM — which still proves liveness). The staleness
 *  test behind lockfile takeover and orphaned-temp-file sweeps. */
bool pidAlive(long pid);

/** Retry policy for FileLock::acquire(). */
struct FileLockConfig
{
    /** Claim attempts before giving up (>= 1). */
    int max_attempts = 200;

    /** Sleep after the first failed attempt; doubles per retry. */
    std::chrono::milliseconds initial_backoff{1};

    /** Backoff ceiling (total worst-case wait ~ max_attempts * max). */
    std::chrono::milliseconds max_backoff{50};
};

/**
 * One advisory lockfile. Movable-from-nothing: each instance either
 * holds its lock or does not; copying is disabled.
 *
 * Annotation note: the class is declared a CAPABILITY so the type
 * reads as a lock in call signatures, but acquire()/release() are
 * deliberately *not* ACQUIRE/RELEASE-annotated. Clang's analysis
 * cannot soundly model this discipline: acquire() is fallible (the
 * caller branches on the result, which only TRY_ACQUIRE on a scoped
 * type expresses), the destructor conditionally releases only when
 * held, and the capability guards cross-process file state rather
 * than any member the analysis could track. Mis-annotating would
 * produce warnings on every correct call site and silence on the
 * incorrect ones. The locking protocol is instead covered dynamically
 * by test_lock's two-process stampede tests.
 */
class CAPABILITY("filelock") FileLock
{
  public:
    /** Does not acquire; `path` is the lockfile itself (see
     *  lockPathFor for the conventional name next to a protected
     *  file). */
    explicit FileLock(std::string path);

    /** Releases if held. */
    ~FileLock();

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    /**
     * One claim attempt (create-exclusive, else stale takeover).
     * Returns true iff the lock is now held. No sleeping.
     */
    bool tryAcquire();

    /**
     * tryAcquire() with bounded retry + exponential backoff on
     * contention. Non-contention errors (e.g. the lock directory does
     * not exist) fail immediately — retrying cannot fix them.
     */
    bool acquire(const FileLockConfig &config = FileLockConfig());

    /** Unlink + close; no-op when not held. */
    void release();

    bool held() const { return fd_ >= 0; }

    const std::string &path() const { return path_; }

    /** Conventional lockfile name protecting `target`: target.lock. */
    static std::string lockPathFor(const std::string &target);

  private:
    /** Claim by linking a flocked, pid-stamped private file to the
     *  lock path; true on success. Sets contended_. */
    bool claim();

    /** Remove an existing lockfile iff its recorded pid is dead,
     *  under flock on its inode (see file comment for the race). */
    void takeOverIfStale();

    std::string path_;
    int fd_ = -1;
    /** Last claim() failure was EEXIST (retryable) vs a hard error. */
    bool contended_ = false;
};

} // namespace highlight

#endif // HIGHLIGHT_COMMON_FILE_LOCK_HH
