#include "runtime/eval_cache.hh"

#include <cstring>
#include <type_traits>

namespace highlight
{

namespace
{

/** Append the object bytes of `value`: fixed width, so a field never
 *  runs into the next one. */
template <typename T>
void
appendBytes(std::string &key, T value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    char buf[sizeof(T)];
    std::memcpy(buf, &value, sizeof(T));
    key.append(buf, sizeof(T));
}

void
appendOperand(std::string &key, const OperandSparsity &s)
{
    key += static_cast<char>(s.kind);
    switch (s.kind) {
      case PatternKind::Dense:
        break;
      case PatternKind::Unstructured:
        appendBytes(key, s.density);
        break;
      case PatternKind::Hss:
        appendBytes(key, static_cast<std::uint32_t>(s.hss.numRanks()));
        for (const GhPattern &rank : s.hss.patterns()) {
            appendBytes(key, static_cast<std::int32_t>(rank.g));
            appendBytes(key, static_cast<std::int32_t>(rank.h));
        }
        break;
    }
}

} // namespace

std::string
EvalCache::keyOf(const std::string &design, const GemmWorkload &w)
{
    std::string key;
    key.reserve(design.size() + 96);
    appendBytes(key, static_cast<std::uint64_t>(design.size()));
    key += design;
    appendBytes(key, w.m);
    appendBytes(key, w.k);
    appendBytes(key, w.n);
    appendOperand(key, w.a);
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
    *out = it->second;
    out->workload = workload_name;
    return true;
}

void
EvalCache::insert(const std::string &key, const EvalResult &r)
{
    MutexLock lock(mu_);
    if (map_.try_emplace(key, r).second) // first insertion wins
        ++stats_.insertions;
}

void
EvalCache::noteHit()
{
    MutexLock lock(mu_);
    ++stats_.hits;
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
    return map_.size();
}

void
EvalCache::clear()
{
    MutexLock lock(mu_);
    map_.clear();
    stats_ = EvalCacheStats();
}

} // namespace highlight
