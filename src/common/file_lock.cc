#include "common/file_lock.hh"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/logging.hh"

namespace highlight
{

bool
pidAlive(long pid)
{
    if (pid <= 0)
        return false; // unparsable stamp: treat as a dead holder
    return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

namespace
{

/** The pid stamped into an open lockfile; -1 when unreadable. */
long
readPid(int fd)
{
    char buf[32];
    const ssize_t n = ::pread(fd, buf, sizeof(buf) - 1, 0);
    if (n <= 0)
        return -1;
    buf[n] = '\0';
    char *end = nullptr;
    const long pid = std::strtol(buf, &end, 10);
    if (end == buf)
        return -1;
    return pid;
}

} // namespace

FileLock::FileLock(std::string path) : path_(std::move(path)) {}

FileLock::~FileLock()
{
    release();
}

std::string
FileLock::lockPathFor(const std::string &target)
{
    return target + ".lock";
}

bool
FileLock::claim()
{
    contended_ = false;
    // Build the lockfile under a private name first — flocked and
    // pid-stamped — and only then link() it to the lock path. Were the
    // lock path created directly, a stealer could open it between the
    // create and the flock, win the flock, read an empty stamp as a
    // dead holder and unlink a claim still in flight. The pid and the
    // process-wide counter keep concurrent claimants' names apart.
    static std::atomic<std::uint64_t> claim_seq{0};
    const std::string staged = msgOf(path_, ".claim.", ::getpid(), ".",
                                     claim_seq.fetch_add(1));
    const int fd =
        ::open(staged.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0)
        return false; // ENOENT/EACCES/...: not contention
    // The flock backs the stale-takeover protocol: it evaporates if
    // this process dies, letting a stealer prove the file is orphaned.
    // Nobody else knows the private name, so it cannot block.
    const std::string stamp = msgOf(static_cast<long>(::getpid()), "\n");
    bool linked = false;
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0 &&
        ::write(fd, stamp.c_str(), stamp.size()) ==
            static_cast<ssize_t>(stamp.size())) {
        // link() is the atomic create-exclusive step: it fails with
        // EEXIST while another holder's lockfile is in place.
        linked = ::link(staged.c_str(), path_.c_str()) == 0;
        contended_ = !linked && errno == EEXIST;
    }
    ::unlink(staged.c_str());
    if (!linked) {
        ::close(fd); // drops the flock
        return false;
    }
    fd_ = fd;
    return true;
}

void
FileLock::takeOverIfStale()
{
    const int fd = ::open(path_.c_str(), O_RDWR);
    if (fd < 0)
        return; // already gone — the next claim() decides
    // A live holder keeps LOCK_EX on its fd from before the lock path
    // exists, so winning this flock proves the creating process is
    // gone; the pid check below additionally spares a lockfile that
    // names a live process without a flock on it. Only the flock
    // winner may unlink, so two stealers cannot both remove a fresh
    // lock.
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        ::close(fd);
        return;
    }
    // Re-check identity: between our open() and flock() the holder
    // may have released (unlinked) and another process may have
    // created a brand-new lockfile. Unlinking by name would then
    // destroy the new holder's lock — only proceed when the name
    // still resolves to the inode we hold flocked.
    struct stat by_name, by_fd;
    if (::stat(path_.c_str(), &by_name) == 0 &&
        ::fstat(fd, &by_fd) == 0 &&
        by_name.st_ino == by_fd.st_ino &&
        by_name.st_dev == by_fd.st_dev && !pidAlive(readPid(fd))) {
        warn(msgOf("FileLock: removing stale lock ", path_,
                   " (holder pid ", readPid(fd), " is gone)"));
        ::unlink(path_.c_str());
    }
    ::close(fd);
}

bool
FileLock::tryAcquire()
{
    if (held())
        return true;
    if (claim())
        return true;
    if (!contended_)
        return false;
    takeOverIfStale();
    return claim();
}

bool
FileLock::acquire(const FileLockConfig &config)
{
    // Failpoint "filelock-acquire": fail (or crash/delay/hang) here
    // to exercise every "could not lock" path — cache flushes that
    // must report Failed, retry loops, supervisor degradation —
    // without manufacturing real cross-process contention.
    if (failpointFails("filelock-acquire"))
        return false;
    auto backoff = config.initial_backoff;
    for (int attempt = 0; attempt < config.max_attempts; ++attempt) {
        if (tryAcquire())
            return true;
        if (!contended_)
            return false; // ENOENT/EACCES/...: retrying cannot help
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, config.max_backoff);
    }
    return false;
}

void
FileLock::release()
{
    if (!held())
        return;
    // Unlink before close: we still hold the flock while the name
    // disappears, so no stealer can race the teardown.
    ::unlink(path_.c_str());
    ::close(fd_);
    fd_ = -1;
}

} // namespace highlight
