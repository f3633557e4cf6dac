#include "runtime/eval_cache.hh"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <type_traits>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/failpoint.hh"
#include "common/file_lock.hh"
#include "common/logging.hh"
#include "io/artifact_file.hh"

namespace highlight
{

namespace
{

/** Append the decimal form of an integer or, for a double, printf's
 *  "%.17g" (max_digits10, so distinct densities never collide). */
template <typename T>
void
appendNumber(std::string &key, T value)
{
    char buf[32];
    std::to_chars_result res;
    if constexpr (std::is_floating_point_v<T>)
        res = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, 17);
    else
        res = std::to_chars(buf, buf + sizeof(buf), value);
    key.append(buf, res.ptr);
}

void
appendOperand(std::string &key, const OperandSparsity &s)
{
    switch (s.kind) {
      case PatternKind::Dense:
        key += 'D';
        break;
      case PatternKind::Unstructured:
        key += 'U';
        appendNumber(key, s.density);
        break;
      case PatternKind::Hss:
        key += 'H';
        key += s.hss.str();
        break;
    }
}

} // namespace

EvalCacheConfig
EvalCacheConfig::fromEnv()
{
    EvalCacheConfig cfg;
    // Strict full-string validation (shared with HIGHLIGHT_THREADS):
    // atol("1e6") would silently cap the cache at 1 entry, and
    // strtoull("-1") would wrap to a practically unbounded 2^64-1.
    // Invalid values warn and leave the cache unbounded.
    cfg.capacity = static_cast<std::size_t>(positiveIntFromEnv(
        "HIGHLIGHT_CACHE_CAP",
        /*max_value=*/std::numeric_limits<long long>::max(),
        /*fallback=*/0));
    cfg.file = stringFromEnv("HIGHLIGHT_CACHE_FILE");
    cfg.format = cacheFormatFromEnv();
    return cfg;
}

EvalCache::EvalCache(const EvalCacheConfig &config)
    : capacity_(config.capacity), file_(config.file),
      format_(config.format)
{
    // Cold-starting on a bad file is by design, but not silently: a
    // *rejected* file (present yet corrupt, truncated, or written by
    // another version) means previously computed results are about to
    // be recomputed, and the user should know. A missing file is just
    // the first run.
    if (!file_.empty() && load(file_) == LoadStatus::Rejected)
        warn(msgOf("EvalCache: ignoring ", file_,
                   " (corrupt, truncated, or version mismatch); "
                   "starting cold"));
}

EvalCache::~EvalCache()
{
    // Best effort, but not silent: a failed save here drops a warm
    // cache on the floor, and the destructor is the only flush most
    // drivers ever run.
    if (!file_.empty() && flush() == FlushStatus::Failed)
        warn(msgOf("EvalCache: failed to persist ", file_,
                   " at destruction"));
}

std::string
EvalCache::keyOf(const std::string &design, const GemmWorkload &w)
{
    std::string key;
    key.reserve(design.size() + 96);
    key += design;
    key += '|';
    appendNumber(key, w.m);
    key += 'x';
    appendNumber(key, w.k);
    key += 'x';
    appendNumber(key, w.n);
    key += '|';
    appendOperand(key, w.a);
    key += '|';
    appendOperand(key, w.b);
    return key;
}

EvalResult
EvalCache::evaluate(const Accelerator &accel, const GemmWorkload &w)
{
    const std::string key = keyOf(accel.name(), w);
    EvalResult r;
    if (lookup(key, w.name, &r))
        return r;
    r = evaluateBest(accel, w);
    insert(key, r);
    return r;
}

bool
EvalCache::lookup(const std::string &key, const std::string &workload_name,
                  EvalResult *out)
{
    MutexLock lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    // Refresh recency: a touched entry moves to the hot end.
    lru_.splice(lru_.begin(), lru_, it->second);
    *out = it->second->result;
    out->workload = workload_name;
    return true;
}

void
EvalCache::insert(const std::string &key, const EvalResult &r)
{
    MutexLock lock(mu_);
    if (map_.find(key) != map_.end())
        return; // first insertion wins
    lru_.push_front(Entry{key, r});
    map_.emplace(key, lru_.begin());
    ++stats_.insertions;
    evictOverCapacityLocked();
}

void
EvalCache::noteHit()
{
    MutexLock lock(mu_);
    ++stats_.hits;
}

std::size_t
EvalCache::capacity() const
{
    MutexLock lock(mu_);
    return capacity_;
}

void
EvalCache::setCapacity(std::size_t capacity)
{
    MutexLock lock(mu_);
    capacity_ = capacity;
    evictOverCapacityLocked();
}

void
EvalCache::evictOverCapacityLocked()
{
    if (capacity_ == 0)
        return;
    while (lru_.size() > capacity_) {
        map_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

EvalCache::LoadStatus
EvalCache::load(const std::string &path)
{
    // Failpoint "evalcache-load": force the discard/cold-start path
    // (the salvage machinery below is deliberately bypassed too).
    if (failpointFails("evalcache-load"))
        return LoadStatus::Rejected;

    LoadStatus status = LoadStatus::Loaded;
    std::vector<Entry> staged;
    switch (readCacheFile(path, &staged)) {
      case CacheReadStatus::Missing:
        return LoadStatus::NoFile;
      case CacheReadStatus::Rejected: {
        // The strict read refused the file. For a binary container
        // that need not mean total loss: recover every entry chunk
        // whose checksums validate and warm-start from those, moving
        // the damaged file aside to `<path>.corrupt.<pid>` so the
        // next flush rebuilds a healthy file while the evidence
        // survives for postmortem. Text caches carry no salvage
        // redundancy, and a binary file yielding zero entries is
        // plain Rejected (nothing recovered, nothing to quarantine —
        // the next flush simply overwrites it).
        if (!isArtifactFile(path) ||
            salvageCacheFile(path, &staged) == 0)
            return LoadStatus::Rejected;
        const std::string quarantine =
            msgOf(path, ".corrupt.", ::getpid());
        if (std::rename(path.c_str(), quarantine.c_str()) == 0)
            warn(msgOf("EvalCache: ", path, " is damaged; salvaged ",
                       staged.size(),
                       " intact entries and quarantined the file to ",
                       quarantine));
        else
            // Quarantine is best effort: a concurrent loader may have
            // renamed (or a flush replaced) the file first. The
            // salvaged entries are already staged either way.
            warn(msgOf("EvalCache: ", path, " is damaged; salvaged ",
                       staged.size(), " intact entries"));
        status = LoadStatus::Salvaged;
        break;
      }
      case CacheReadStatus::Ok:
        break;
    }

    MutexLock lock(mu_);
    // The file stores entries hot-first; appending in file order keeps
    // that recency ranking for entries not already resident. A key
    // already resident is skipped: resident wins, by contract (see
    // the header) — merge-on-flush depends on this precedence being
    // deterministic.
    for (auto &e : staged) {
        if (map_.find(e.key) != map_.end())
            continue;
        lru_.push_back(std::move(e));
        map_.emplace(std::prev(lru_.end())->key, std::prev(lru_.end()));
    }
    evictOverCapacityLocked();
    return status;
}

bool
EvalCache::loadFile(const std::string &path)
{
    const LoadStatus status = load(path);
    return status == LoadStatus::Loaded || status == LoadStatus::Salvaged;
}

namespace
{

/** fsync `path`; false when the data may not have reached disk. */
bool
syncFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

/** Best-effort fsync of the directory containing `path`, so the
 *  rename itself (the new directory entry) is durable too. */
void
syncParentDir(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::fsync(fd); // best effort: some filesystems refuse dir fsync
    ::close(fd);
}

/** Sleep between the two write attempts of a flush — long enough for
 *  a transient condition (ENOSPC race, AV scanner, NFS hiccup) to
 *  clear, short enough to be invisible in a driver run. */
constexpr std::chrono::milliseconds kSaveRetryBackoff{25};

/**
 * Unlink `<path>.tmp.<writer-pid>.<seq>` siblings whose writer pid is
 * dead: a writer that crashed between creating its temp file and the
 * rename cannot clean up after itself, and without this sweep every
 * such crash leaks a file next to the cache forever. Only dead
 * writers' temps are touched (same pid-liveness test as stale-lock
 * takeover), and the caller holds the flush lock, so no live writer
 * is concurrently renaming on this path.
 */
void
sweepOrphanTemps(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const std::string prefix =
        (slash == std::string::npos ? path : path.substr(slash + 1)) +
        ".tmp.";
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return;
    while (struct dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() <= prefix.size() ||
            name.compare(0, prefix.size(), prefix) != 0)
            continue;
        // "<prefix><pid>.<seq>": the pid ends at the next dot. A name
        // that does not parse that way is not one of our temps.
        const char *pid_begin = name.c_str() + prefix.size();
        char *pid_end = nullptr;
        const long pid = std::strtol(pid_begin, &pid_end, 10);
        if (pid_end == pid_begin || *pid_end != '.' || pid <= 0)
            continue;
        if (pidAlive(pid))
            continue;
        const std::string victim = dir + "/" + name;
        if (::unlink(victim.c_str()) == 0)
            warn(msgOf("EvalCache: removed orphaned temp ", victim,
                       " (writer pid ", pid, " is gone)"));
    }
    ::closedir(d);
}

} // namespace

bool
EvalCache::saveFile(const std::string &path, ArtifactFormat format) const
{
    // Failpoint "evalcache-save": the whole flush reports failure
    // before touching the lock or the file.
    if (failpointFails("evalcache-save"))
        return false;

    // Serialize whole flushes across processes: without the lock two
    // drivers sharing one cache file interleave read-merge-write and
    // the loser's entries silently vanish (last-writer-wins). A
    // failed acquire fails the save — never write unlocked.
    FileLock lock(FileLock::lockPathFor(path));
    if (!lock.acquire()) {
        warn(msgOf("EvalCache: cannot lock ", lock.path(),
                   " — cache not saved"));
        return false;
    }

    // Housekeeping under the lock: temp files leaked by crashed
    // writers would otherwise pile up next to the cache forever.
    sweepOrphanTemps(path);

    // Merge-on-flush: pick up entries a concurrent writer flushed
    // since we loaded, in whichever format it wrote them. A
    // missing/stale file merges as empty — the same wholesale-ignore
    // contract as the cold-start load — but a *damaged* binary file
    // merges its salvageable chunks: this very write heals the file,
    // so unlike load() no quarantine is needed.
    std::vector<Entry> disk;
    if (readCacheFile(path, &disk) == CacheReadStatus::Rejected &&
        isArtifactFile(path))
        salvageCacheFile(path, &disk);

    // Serialize once, up front and *under mu_*: the merged view holds
    // pointers into lru_, so encoding must finish before another
    // thread can evict. The resulting byte image is self-contained,
    // which lets mu_ drop before the write loop below — holding an
    // in-process mutex across fsync, rename, and a 25ms retry backoff
    // would stall every concurrent lookup for the whole flush (the
    // cross-process FileLock stays held; only mu_ is released).
    std::string image;
    {
        MutexLock mu(mu_);
        // Resident wins on collisions (load's precedence, mirrored):
        // the written file is every resident entry MRU-first, then the
        // on-disk entries whose keys are not resident, in file order,
        // ranked colder than every resident entry.
        std::vector<const Entry *> merged;
        merged.reserve(lru_.size() + disk.size());
        for (const auto &e : lru_)
            merged.push_back(&e);
        for (const auto &e : disk) {
            if (map_.find(e.key) == map_.end())
                merged.push_back(&e);
        }

        // If the first write attempt fails the retry must emit
        // identical bytes, and an encoding failure is not worth
        // retrying at all.
        std::ostringstream encoded;
        if (!writeCacheEntries(encoded, merged, format))
            return false;
        image = encoded.str();
    }

    // Write to a temp file in the same directory, then fsync and
    // atomically rename over the target: a crash mid-write can never
    // leave a truncated half-file at `path`, and a crash right after
    // the rename cannot surface an empty file either (without the
    // fsync some filesystems journal the rename before the data).
    // The pid + process-wide counter keep concurrent writers' temp
    // files apart both across processes and across caches within one
    // process. A failed attempt is retried once after a short backoff
    // — still under the lock — before the flush gives up: losing a
    // warm cache to a transient I/O error is expensive, and flushes
    // are rare enough that one bounded retry costs nothing.
    static std::atomic<std::uint64_t> save_seq{0};
    bool durable = false;
    for (int attempt = 0; attempt < 2 && !durable; ++attempt) {
        if (attempt > 0) {
            warn(msgOf("EvalCache: write of ", path,
                       " failed; retrying once"));
            std::this_thread::sleep_for(kSaveRetryBackoff);
        }
        const std::string tmp = msgOf(path, ".tmp.", ::getpid(), ".",
                                      save_seq.fetch_add(1));
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        // Failpoint "evalcache-save-write": `error:1` fails exactly
        // one attempt (the retry heals it); `crash-at-byte:N` dies
        // mid-write, leaving the torn temp a crashed writer leaves.
        bool ok = static_cast<bool>(out) &&
                  failpointGuardedWrite(out, image,
                                        "evalcache-save-write");
        out.close();
        ok = ok && static_cast<bool>(out) && syncFile(tmp) &&
             std::rename(tmp.c_str(), path.c_str()) == 0;
        if (!ok)
            std::remove(tmp.c_str());
        durable = ok;
    }
    if (!durable)
        return false;
    syncParentDir(path);
    return true;
}

bool
EvalCache::saveFile(const std::string &path) const
{
    return saveFile(path, format_);
}

EvalCache::FlushStatus
EvalCache::flush() const
{
    // file_ is const after construction, so no lock is needed here.
    if (file_.empty())
        return FlushStatus::NoFile;
    return saveFile(file_) ? FlushStatus::Saved : FlushStatus::Failed;
}

EvalCacheStats
EvalCache::stats() const
{
    MutexLock lock(mu_);
    return stats_;
}

std::size_t
EvalCache::size() const
{
    MutexLock lock(mu_);
    return lru_.size();
}

std::vector<std::string>
EvalCache::keysMruFirst() const
{
    MutexLock lock(mu_);
    std::vector<std::string> keys;
    keys.reserve(lru_.size());
    for (const auto &e : lru_)
        keys.push_back(e.key);
    return keys;
}

void
EvalCache::clear()
{
    MutexLock lock(mu_);
    lru_.clear();
    map_.clear();
    stats_ = EvalCacheStats();
}

} // namespace highlight
