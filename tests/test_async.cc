/**
 * @file
 * Concurrency tests for the batch runtime: results do not depend on
 * the pool's thread count, two threads may call runBatch on one
 * Evaluator at once, and a throwing design surfaces its lowest-index
 * error and leaves the Evaluator usable. Everything here must also
 * pass under ThreadSanitizer (the CI tsan job runs this binary).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hh"
#include "runtime/batch_runner.hh"
#include "runtime/thread_pool.hh"

namespace highlight
{
namespace
{

/** Restores the global pool to its default size on scope exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard() { ThreadPool::setGlobalThreads(0); }
};

GemmWorkload
makeWorkload(const std::string &name, std::int64_t m)
{
    GemmWorkload w;
    w.name = name;
    w.m = m;
    w.k = 64;
    w.n = 64;
    w.a = OperandSparsity::dense();
    w.b = OperandSparsity::unstructured(0.5);
    return w;
}

void
expectSameNumbers(const EvalResult &a, const EvalResult &b)
{
    EXPECT_EQ(a.supported, b.supported);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalEnergyPj(), b.totalEnergyPj());
}

TEST(EvaluateBatch, ThreadCountNeverChangesResults)
{
    GlobalPoolGuard guard;
    const Evaluator ev;
    const Accelerator &tc = ev.design("TC");
    const Accelerator &hl = ev.design("HighLight");

    std::vector<EvalJob> jobs;
    for (int i = 0; i < 24; ++i) {
        const Accelerator &accel = (i % 3 == 0) ? hl : tc;
        jobs.push_back({&accel, makeWorkload("j" + std::to_string(i),
                                             8 + 8 * (i % 5))});
    }

    ThreadPool::setGlobalThreads(1);
    const auto serial = ev.runBatch(jobs);
    ThreadPool::setGlobalThreads(8);
    const auto parallel = ev.runBatch(jobs);
    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(serial[i].workload, jobs[i].workload.name);
        EXPECT_EQ(parallel[i].workload, jobs[i].workload.name);
        expectSameNumbers(serial[i], parallel[i]);
        expectSameNumbers(
            serial[i], evaluateBest(*jobs[i].design, jobs[i].workload));
    }
}

TEST(EvaluateBatch, ConcurrentBatchesOnOneEvaluatorAreCorrect)
{
    const Evaluator ev;
    const Accelerator &tc = ev.design("TC");
    const Accelerator &hl = ev.design("HighLight");

    // Both batches share most keys.
    const auto batchOf = [&](const std::string &tag) {
        std::vector<EvalJob> jobs;
        for (int i = 0; i < 40; ++i) {
            const Accelerator &accel = (i % 2 == 0) ? tc : hl;
            jobs.push_back({&accel, makeWorkload(tag + std::to_string(i),
                                                 8 + 8 * (i % 12))});
        }
        return jobs;
    };
    const auto jobs_a = batchOf("a");
    const auto jobs_b = batchOf("b");
    const auto check = [](const std::vector<EvalJob> &jobs,
                          const std::vector<EvalResult> &got) {
        ASSERT_EQ(got.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(got[i].workload, jobs[i].workload.name);
            expectSameNumbers(
                got[i], evaluateBest(*jobs[i].design, jobs[i].workload));
        }
    };

    for (int round = 0; round < 5; ++round) {
        std::vector<EvalResult> got_a, got_b;
        std::thread ta([&] { got_a = ev.runBatch(jobs_a); });
        std::thread tb([&] { got_b = ev.runBatch(jobs_b); });
        ta.join();
        tb.join();
        check(jobs_a, got_a);
        check(jobs_b, got_b);
    }
}

/** Throws std::runtime_error(workload name) from every evaluation. */
class ThrowingAccel : public Accelerator
{
  public:
    ThrowingAccel()
        : Accelerator([] {
              ArchSpec spec;
              spec.name = "Throwing";
              return spec;
          }())
    {
    }

    std::string supportedPatternsA() const override { return "any"; }
    std::string supportedPatternsB() const override { return "any"; }
    bool supports(const GemmWorkload &) const override { return true; }

    EvalResult
    evaluate(const GemmWorkload &w) const override
    {
        throw std::runtime_error(w.name);
    }

    std::vector<BreakdownEntry> areaBreakdown() const override
    {
        return {};
    }
};

TEST(EvaluateBatch, ThrowingDesignRethrowsLowestIndex)
{
    const Evaluator ev;
    const Accelerator &tc = ev.design("TC");
    const ThrowingAccel bad;

    std::vector<EvalJob> jobs = {{&tc, makeWorkload("good", 32)},
                                 {&bad, makeWorkload("first", 64)}};
    for (int i = 0; i < 16; ++i)
        jobs.push_back({&bad, makeWorkload("later", 128 + i)});
    try {
        ev.runBatch(jobs);
        FAIL() << "runBatch swallowed the evaluation error";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }

    // The Evaluator stays usable, and the failing job throws again.
    expectSameNumbers(ev.run("TC", makeWorkload("after", 32)),
                      evaluateBest(tc, makeWorkload("after", 32)));
    EXPECT_THROW(ev.runBatch({{&bad, makeWorkload("again", 64)}}),
                 std::runtime_error);
}

} // namespace
} // namespace highlight
