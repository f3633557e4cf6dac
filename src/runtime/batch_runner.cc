#include "runtime/batch_runner.hh"

#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "common/logging.hh"

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
keyOf(const std::string &design, const GemmWorkload &w)
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

std::vector<EvalResult>
evaluateBatch(const std::vector<EvalJob> &jobs)
{
    const std::size_t n = jobs.size();
    std::vector<std::string> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (jobs[i].design == nullptr)
            fatal("evaluateBatch: job with null design");
        keys[i] = keyOf(jobs[i].design->name(), jobs[i].workload);
    }

    // first_of maps a key to the index of its first job, whose result
    // every later job with that key copies.
    std::vector<EvalResult> out(n);
    std::unordered_map<std::string_view, std::size_t> first_of;
    first_of.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto [it, inserted] = first_of.emplace(keys[i], i);
        if (inserted)
            out[i] = evaluateBest(*jobs[i].design, jobs[i].workload);
        else
            out[i] = out[it->second];
        out[i].workload = jobs[i].workload.name;
    }
    return out;
}

} // namespace highlight
