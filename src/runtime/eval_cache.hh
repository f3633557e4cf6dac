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
 * For long-running service use the table is bounded: an LRU list
 * orders entries by last touch and inserts past the capacity evict
 * from the cold end. For incremental figure regeneration the table is
 * persistent: a versioned file can be loaded at construction and saved
 * with flush(), so a second driver invocation starts warm. The bytes
 * go through the io/ codec seam — the binary ArtifactFile container by
 * default, or the legacy text format (hexfloat-exact doubles) via
 * HIGHLIGHT_CACHE_FORMAT / --cache-format — and loads auto-detect the
 * format, so caches written in either interoperate. A file whose
 * version or key schema does not match is ignored wholesale; the
 * cache starts cold, with a warning (a missing file is the normal
 * cold start and stays silent). A *damaged* binary file — truncated
 * or bit-flipped — is salvaged instead: every entry chunk whose
 * checksums validate is merged in (warm-start), and the damaged file
 * is quarantined to `<path>.corrupt.<pid>` for postmortem rather
 * than silently overwritten. Text caches have no salvage redundancy
 * and still cold-start.
 *
 * The file is safe to share between processes (sharded sweeps with
 * one warm cache): every save is a *locked merge-on-flush* — under an
 * advisory FileLock the on-disk entries are re-read and any not
 * resident in this cache are appended to the written file, so two
 * drivers flushing the same path end with the union of their entries
 * instead of last-writer-wins data loss. Resident entries win over
 * the file's on key collisions (same contract as loadFile), the
 * resident LRU/stats are never touched by a save, and the temp file
 * is fsync'd before the atomic rename so a crash right after the
 * rename cannot surface an empty file.
 */

#ifndef HIGHLIGHT_RUNTIME_EVAL_CACHE_HH
#define HIGHLIGHT_RUNTIME_EVAL_CACHE_HH

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/harness.hh"
#include "accel/workload.hh"
#include "common/mutex.hh"
#include "io/cache_codec.hh"

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
    std::uint64_t evictions = 0;  ///< Entries dropped by the LRU bound.

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

/** Construction knobs; fromEnv() reads the process environment. */
struct EvalCacheConfig
{
    /** Max resident entries; 0 = unbounded. */
    std::size_t capacity = 0;

    /** Persistence file; empty = in-memory only. */
    std::string file;

    /** On-disk encoding used by saves (loads auto-detect). */
    ArtifactFormat format = ArtifactFormat::Binary;

    /**
     * HIGHLIGHT_CACHE_CAP (positive integer, else unbounded),
     * HIGHLIGHT_CACHE_FILE (path, else no persistence), and
     * HIGHLIGHT_CACHE_FORMAT (text|binary, else binary with a
     * warning).
     */
    static EvalCacheConfig fromEnv();
};

/**
 * Thread-safe (design, workload) -> EvalResult memo table with LRU
 * eviction and optional on-disk persistence.
 */
class EvalCache
{
  public:
    /**
     * Bumped whenever the file layout or the keyOf() schema changes;
     * a persisted cache from another version is ignored on load.
     * (Alias of the codec-layer kCacheFileVersion, which both the
     * text header and the binary container stamp.)
     */
    static constexpr int kFileVersion = kCacheFileVersion;

    /** Outcome of flush(): "nothing configured" is not a failure. */
    enum class FlushStatus
    {
        NoFile, ///< No persistence file configured; nothing to do.
        Saved,  ///< Written (merged with any on-disk entries).
        Failed, ///< Real I/O or lock failure; the file was not updated.
    };

    /** Outcome of load(): a missing file is the normal cold start,
     *  a rejected one means computed results were discarded. */
    enum class LoadStatus
    {
        Loaded,   ///< Entries merged in.
        NoFile,   ///< Nothing at the path; cold start.
        Rejected, ///< Corrupt / truncated / version mismatch; ignored.
        Salvaged, ///< Damaged file: intact entries merged, file
                  ///< quarantined to `<path>.corrupt.<pid>`.
    };

    EvalCache() = default;

    /** Applies the config and loads the file (if set). A rejected
     *  file — present but corrupt or version-mismatched — warns, so
     *  silently recomputing previously cached results never goes
     *  unnoticed; a merely missing file is a silent cold start. */
    explicit EvalCache(const EvalCacheConfig &config);

    /** Best-effort flush() when a persistence file is configured, so
     *  HIGHLIGHT_CACHE_FILE persists even for drivers that never call
     *  flush() explicitly. */
    ~EvalCache();

    /**
     * Canonical cache key: design name, M/K/N, and each operand's
     * kind, density (full precision) and HSS spec. Excludes the
     * workload's display name.
     */
    static std::string keyOf(const std::string &design,
                             const GemmWorkload &w);

    /**
     * Memoized evaluateBest(): returns the cached result (name
     * patched to w.name) or computes, inserts, and returns it.
     */
    EvalResult evaluate(const Accelerator &accel, const GemmWorkload &w);

    /** Copy of the cached result for key, name-patched; counts a hit
     *  and refreshes the entry's LRU position. Returns false (and
     *  counts a miss) when absent. */
    bool lookup(const std::string &key, const std::string &workload_name,
                EvalResult *out);

    /** Insert a computed result (first insertion wins). The new entry
     *  is most-recently-used; over-capacity entries evict coldest
     *  first. */
    void insert(const std::string &key, const EvalResult &r);

    /** Count a hit without a lookup (a key repeated within a batch). */
    void noteHit();

    /** Max resident entries (0 = unbounded). */
    std::size_t capacity() const;

    /** Change the bound; shrinking evicts coldest entries now. */
    void setCapacity(std::size_t capacity);

    /**
     * Merge a persisted cache file, auto-detecting its format. Loaded
     * entries keep the file's recency order (first entry = most
     * recent), rank colder than every resident entry, and count as
     * neither hits, misses nor insertions. On a key collision the
     * *resident* entry wins — even when the file's copy is newer.
     * That precedence is the contract merge-on-flush saves rely on
     * (this process's results are authoritative for what it
     * computed); since evaluation is a pure function of the key,
     * colliding values only ever differ across library versions,
     * which the file version already fences. NoFile (nothing at the
     * path) and Rejected (version/schema mismatch, or an unsalvageable
     * file) leave the cache untouched. A *damaged* binary container is
     * salvaged rather than rejected: every entry chunk whose checksums
     * validate merges in exactly as a Loaded file's entries would, the
     * damaged file is renamed to `<path>.corrupt.<pid>` (so the next
     * flush rebuilds a healthy file while the evidence survives for
     * postmortem), a warning reports both counts, and the status is
     * Salvaged. Salvage only ever recovers bit-exact entries — the
     * checksums decide survival, never content.
     */
    LoadStatus load(const std::string &path);

    /** True when load(path) merged entries in (Loaded or Salvaged). */
    bool loadFile(const std::string &path);

    /**
     * Locked merge-on-flush: under an advisory `path`.lock FileLock,
     * re-reads `path` (a stale/corrupt/missing file merges as empty,
     * preserving the cold-start contract) and writes every resident
     * entry most-recently-used first, followed by the on-disk entries
     * whose keys are not resident, in file order. Resident entries
     * win collisions; this cache's LRU order, capacity and stats are
     * left completely untouched (the merged union lives only in the
     * file — it may well exceed `capacity()`, which only bounds
     * residency). The write is atomic and durable: temp file in the
     * same directory, fsync, rename over `path`, best-effort
     * directory fsync. Returns false on lock or I/O failure — the
     * target file is never clobbered without the lock. The merge
     * re-read auto-detects the on-disk format, so a save can migrate
     * a cache from one format to the other without losing entries;
     * a damaged on-disk file merges its salvageable entries (the
     * rewrite heals it in place, no quarantine needed).
     *
     * Two crash-robustness duties run under the same lock: orphaned
     * `<path>.tmp.<pid>.<seq>` files whose writer pid is dead are
     * swept (a crashed writer's half-written temp would otherwise
     * leak next to the cache forever), and a failed write attempt is
     * retried once after a short backoff before the save reports
     * failure — flushes are rare and losing a warm cache to a
     * transient error is expensive.
     */
    bool saveFile(const std::string &path, ArtifactFormat format) const;

    /** saveFile in the configured format (binary by default). */
    bool saveFile(const std::string &path) const;

    /**
     * Save to the configured persistence file (locked merge-on-flush,
     * see saveFile). The three outcomes are distinct so callers can
     * tell "nothing configured" from a real I/O failure that just
     * dropped a warm cache on the floor.
     */
    FlushStatus flush() const;

    EvalCacheStats stats() const;
    std::size_t size() const;

    /** Resident keys, most-recently-used first (LRU inspection). */
    std::vector<std::string> keysMruFirst() const;

    void clear(); ///< Drops entries and resets the counters.

  private:
    /** Resident entries share the codec's wire struct, so flushes
     *  serialize without copies. */
    using Entry = CacheFileEntry;

    /** Drop cold entries until size <= capacity (lock held). */
    void evictOverCapacityLocked() REQUIRES(mu_);

    mutable Mutex mu_;
    /** Front = most recently used. */
    std::list<Entry> lru_ GUARDED_BY(mu_);
    std::unordered_map<std::string, std::list<Entry>::iterator>
        map_ GUARDED_BY(mu_);
    std::size_t capacity_ GUARDED_BY(mu_) = 0; ///< 0 = unbounded.
    // file_ and format_ are set in the constructor and never written
    // again, so they need no capability (const-after-construction).
    std::string file_; ///< Persistence target; empty = none.
    ArtifactFormat format_ = ArtifactFormat::Binary;
    EvalCacheStats stats_ GUARDED_BY(mu_);
};

} // namespace highlight

#endif // HIGHLIGHT_RUNTIME_EVAL_CACHE_HH
