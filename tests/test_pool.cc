/**
 * @file
 * ThreadPool edge cases: degenerate ranges, nested-call handling,
 * which error a failing call reports, concurrent callers, the
 * HIGHLIGHT_THREADS=1 serial equivalence and a bad HIGHLIGHT_THREADS
 * being fatal. The determinism-under-load coverage lives in
 * test_runtime.cc; this file pins down the boundary behavior.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/thread_pool.hh"

namespace highlight
{
namespace
{

/** Counts how often each index in [0, n) ran. */
std::vector<int>
coverage(ThreadPool &pool, std::size_t n)
{
    std::vector<std::atomic<int>> counts(n);
    pool.parallelFor(n, [&](std::size_t i) { counts[i].fetch_add(1); });
    std::vector<int> out;
    out.reserve(n);
    for (const auto &c : counts)
        out.push_back(c.load());
    return out;
}

TEST(PoolEdge, ZeroLengthRangeIsANoOp)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(0, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
    // The pool stays usable after the no-op.
    EXPECT_EQ(coverage(pool, 8), std::vector<int>(8, 1));
}

TEST(PoolEdge, SingleElementRangeRunsInlineOnCaller)
{
    ThreadPool pool(4);
    const auto caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on, caller);
}

TEST(PoolEdge, NestedCallRunsInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    const std::size_t outer = 16, inner = 32;
    std::vector<std::atomic<int>> counts(outer * inner);
    pool.parallelFor(outer, [&](std::size_t i) {
        // A nested call must not re-enter the pool (single job slot):
        // it runs inline on this worker, serially and in order.
        std::size_t seen = 0;
        pool.parallelFor(inner, [&](std::size_t j) {
            EXPECT_EQ(j, seen++); // inline => strictly in order
            counts[i * inner + j].fetch_add(1);
        });
        EXPECT_EQ(seen, inner);
    });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(PoolEdge, HighlightThreads1MatchesMultiThreadedResults)
{
    const char *prev = std::getenv("HIGHLIGHT_THREADS");
    const std::string saved = prev ? prev : "";

    ASSERT_EQ(setenv("HIGHLIGHT_THREADS", "1", 1), 0);
    ThreadPool env_serial(0); // resolves via the env override
    EXPECT_EQ(env_serial.numThreads(), 1);

    ThreadPool parallel(4);
    const auto fill = [](ThreadPool &pool) {
        std::vector<double> out(777);
        pool.parallelFor(out.size(), [&](std::size_t i) {
            out[i] = static_cast<double>(i * i) * 0.125 + 1.0;
        });
        return out;
    };
    EXPECT_EQ(fill(env_serial), fill(parallel));

    if (prev)
        ASSERT_EQ(setenv("HIGHLIGHT_THREADS", saved.c_str(), 1), 0);
    else
        ASSERT_EQ(unsetenv("HIGHLIGHT_THREADS"), 0);
}

TEST(PoolErrors, LowestFailingIndexWinsRegardlessOfTiming)
{
    // Index 63 fails first in time; index 0 fails later but is the
    // lowest failing index, so its error is the one reported — the
    // same one a 1-thread pool would report.
    ThreadPool pool(4);
    try {
        pool.parallelFor(64, [](std::size_t i) {
            if (i == 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                throw std::runtime_error("0");
            }
            if (i == 63)
                throw std::runtime_error("63");
        });
        FAIL() << "parallelFor swallowed the errors";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "0");
    }
}

TEST(PoolConcurrency, ConcurrentCallersEachCoverTheirRangeOnce)
{
    // Two threads share one pool: a caller that finishes must not take
    // the workers away from the other caller's job, and neither call
    // may lose or repeat an index.
    ThreadPool pool(4);
    std::atomic<int> bad_rounds{0};
    const auto caller = [&](std::size_t n) {
        for (int round = 0; round < 50; ++round) {
            if (coverage(pool, n) != std::vector<int>(n, 1))
                bad_rounds.fetch_add(1);
        }
    };
    std::thread a(caller, 300);
    std::thread b(caller, 517);
    a.join();
    b.join();
    EXPECT_EQ(bad_rounds.load(), 0);
}

TEST(PoolGroups, FixedPartitionCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    for (const std::size_t total : {1u, 7u, 8u, 9u, 64u}) {
        for (const std::size_t group : {1u, 3u, 8u, 100u}) {
            std::vector<std::atomic<int>> counts(total);
            pool.parallelForGroups(
                total, group, [&](std::size_t begin, std::size_t end) {
                    ASSERT_LT(begin, end);
                    ASSERT_LE(end, total);
                    // The partition is the fixed one: begin on a group
                    // boundary, end a full group later or the total.
                    EXPECT_EQ(begin % group, 0u);
                    EXPECT_TRUE(end == begin + group || end == total);
                    for (std::size_t i = begin; i < end; ++i)
                        counts[i].fetch_add(1);
                });
            for (std::size_t i = 0; i < total; ++i)
                EXPECT_EQ(counts[i].load(), 1)
                    << "total=" << total << " group=" << group
                    << " i=" << i;
        }
    }
}

TEST(PoolGroups, ZeroTotalIsANoOpAndZeroGroupIsFatal)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelForGroups(0, 4, [&](std::size_t, std::size_t) {
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 0);
    EXPECT_THROW(pool.parallelForGroups(
                     4, 0, [&](std::size_t, std::size_t) {}),
                 FatalError);
}

TEST(PoolGroups, PartitionIsIdenticalAcrossPoolSizes)
{
    // The group boundaries must be a pure function of (total, group):
    // collect them at 1 thread and at several, compare as sets.
    const std::size_t total = 29, group = 4;
    auto boundaries = [&](ThreadPool &pool) {
        std::mutex mu;
        std::vector<std::pair<std::size_t, std::size_t>> out;
        pool.parallelForGroups(
            total, group, [&](std::size_t begin, std::size_t end) {
                std::lock_guard<std::mutex> lock(mu);
                out.emplace_back(begin, end);
            });
        std::sort(out.begin(), out.end());
        return out;
    };
    ThreadPool serial(1), parallel(4);
    EXPECT_EQ(boundaries(serial), boundaries(parallel));
}

TEST(WorkerSlots, SlotsAreExclusiveWhileLeasedAndReusedAfter)
{
    ThreadPool pool(4);
    const std::size_t num_slots =
        static_cast<std::size_t>(pool.numThreads());
    struct Scratch
    {
        std::atomic<int> in_use{0};
        int visits = 0;
    };
    WorkerSlots<Scratch> slots(num_slots, [](std::size_t) {
        return std::make_unique<Scratch>();
    });
    EXPECT_EQ(slots.size(), num_slots);

    pool.parallelFor(256, [&](std::size_t) {
        auto lease = slots.acquire();
        // Exclusivity: no other thread holds this slot right now.
        EXPECT_EQ(lease->in_use.fetch_add(1), 0);
        ++lease->visits;
        lease->in_use.fetch_sub(1);
    });

    // Every index ran on exactly one slot; totals add up.
    int total = 0;
    for (std::size_t i = 0; i < slots.size(); ++i)
        total += slots.slot(i).visits;
    EXPECT_EQ(total, 256);
}

TEST(WorkerSlots, SerialLoopReusesSlotZero)
{
    ThreadPool serial(1);
    WorkerSlots<int> slots(1, [](std::size_t i) {
        return std::make_unique<int>(static_cast<int>(i));
    });
    serial.parallelFor(17, [&](std::size_t) {
        auto lease = slots.acquire();
        EXPECT_EQ(*lease, 0); // always slot 0 when inline
    });
}

TEST(WorkerSlots, AcquirePastCapacityPanics)
{
    WorkerSlots<int> slots(1, [](std::size_t) {
        return std::make_unique<int>(7);
    });
    auto held = slots.acquire();
    EXPECT_EQ(*held, 7);
    EXPECT_THROW(slots.acquire(), PanicError); // sizing bug, not a wait
}

TEST(PoolEdge, BadHighlightThreadsIsFatal)
{
    const char *prev = std::getenv("HIGHLIGHT_THREADS");
    const std::string saved = prev ? prev : "";

    // atoi would silently read "4x" as 4 and "-1"/"0" as disable; the
    // strict parser rejects them all, and a rejected value is fatal
    // rather than replaced by the default.
    for (const char *garbage : {"4x", "-1", "0", "2 4", "1e3", ""}) {
        ASSERT_EQ(setenv("HIGHLIGHT_THREADS", garbage, 1), 0);
        try {
            ThreadPool::defaultThreadCount();
            ADD_FAILURE() << "HIGHLIGHT_THREADS=" << garbage
                          << " did not throw";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          std::string("HIGHLIGHT_THREADS=") + garbage),
                      std::string::npos)
                << e.what();
        }
        EXPECT_THROW(ThreadPool pool(0), FatalError) << garbage;
        // An explicit count does not read the variable.
        EXPECT_EQ(ThreadPool(2).numThreads(), 2);
    }
    ASSERT_EQ(setenv("HIGHLIGHT_THREADS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3);

    if (prev)
        ASSERT_EQ(setenv("HIGHLIGHT_THREADS", saved.c_str(), 1), 0);
    else
        ASSERT_EQ(unsetenv("HIGHLIGHT_THREADS"), 0);
}

} // namespace
} // namespace highlight
