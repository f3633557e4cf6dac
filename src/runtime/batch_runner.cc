#include "runtime/batch_runner.hh"

#include <string_view>
#include <unordered_map>

#include "common/logging.hh"

namespace highlight
{

std::vector<EvalResult>
evaluateBatch(const std::vector<EvalJob> &jobs, EvalCache &cache,
              ThreadPool &pool)
{
    const std::size_t n = jobs.size();
    std::vector<std::string> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (jobs[i].design == nullptr)
            fatal("evaluateBatch: job with null design");
        keys[i] = EvalCache::keyOf(jobs[i].design->name(),
                                   jobs[i].workload);
    }

    // first[i] is the index of the batch's first job with keys[i]; a
    // first occurrence that misses the cache is queued in `misses`.
    std::vector<EvalResult> out(n);
    std::vector<std::size_t> first(n);
    std::vector<std::size_t> misses;
    std::unordered_map<std::string_view, std::size_t> first_of;
    first_of.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto [it, inserted] = first_of.emplace(keys[i], i);
        first[i] = it->second;
        if (!inserted)
            cache.noteHit();
        else if (!cache.lookup(keys[i], jobs[i].workload.name, &out[i]))
            misses.push_back(i);
    }

    std::vector<EvalResult> computed =
        pool.parallelMap(misses.size(), [&](std::size_t u) {
            const EvalJob &job = jobs[misses[u]];
            return evaluateBest(*job.design, job.workload);
        });

    for (std::size_t u = 0; u < misses.size(); ++u) {
        const std::size_t i = misses[u];
        cache.insert(keys[i], computed[u]);
        out[i] = std::move(computed[u]);
        out[i].workload = jobs[i].workload.name;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (first[i] != i) {
            out[i] = out[first[i]];
            out[i].workload = jobs[i].workload.name;
        }
    }
    return out;
}

} // namespace highlight
