#include "runtime/eval_cache.hh"

#include <charconv>
#include <type_traits>

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
