#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/parallel.hh"
#include "util/thread_pool.hh"

namespace dnastore {
namespace {

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    for (size_t n : { size_t(0), size_t(1), size_t(7), size_t(1000) }) {
        for (size_t threads : { size_t(1), size_t(2), size_t(8) }) {
            std::vector<std::atomic<int>> hits(n);
            for (auto &h : hits)
                h.store(0);
            ThreadPool::shared().forEach(n, threads, 0, [&](size_t i) {
                hits[i].fetch_add(1);
            });
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1) << "index " << i
                                             << " threads " << threads;
        }
    }
}

TEST(ThreadPool, OddGrainsCoverTheRange)
{
    const size_t n = 257;
    for (size_t grain : { size_t(1), size_t(3), size_t(64),
                          size_t(1000) }) {
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h.store(0);
        ThreadPool::shared().forEach(n, 4, grain, [&](size_t i) {
            hits[i].fetch_add(1);
        });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "grain " << grain;
    }
}

TEST(ThreadPool, DisjointWritesAreDeterministic)
{
    const size_t n = 4096;
    std::vector<uint64_t> serial(n), threaded(n);
    auto body = [](std::vector<uint64_t> &out) {
        return [&out](size_t i) {
            uint64_t x = i * 0x9e3779b97f4a7c15ULL;
            x ^= x >> 29;
            out[i] = x;
        };
    };
    parallelFor(n, 1, body(serial));
    parallelFor(n, 8, body(threaded));
    EXPECT_EQ(serial, threaded);
}

TEST(ThreadPool, RethrowsFromWorkers)
{
    EXPECT_THROW(
        ThreadPool::shared().forEach(100, 4, 1,
                                     [](size_t i) {
                                         if (i == 57)
                                             throw std::runtime_error(
                                                 "bad index");
                                     }),
        std::runtime_error);
    // The pool survives an exceptional loop and keeps scheduling.
    std::atomic<size_t> count{0};
    ThreadPool::shared().forEach(64, 4, 0,
                                 [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadPool, NestedLoopsRunInline)
{
    std::vector<std::atomic<int>> hits(64 * 16);
    for (auto &h : hits)
        h.store(0);
    ThreadPool::shared().forEach(64, 4, 1, [&](size_t i) {
        // A nested forEach must not deadlock the pool; it executes
        // serially on the worker.
        ThreadPool::shared().forEach(16, 4, 1, [&](size_t j) {
            hits[i * 16 + j].fetch_add(1);
        });
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ShrinkingJobsDoNotRaceExcessWorkers)
{
    // Regression: a wide loop spawns persistent workers, then narrow
    // loops use fewer participants. Every spawned worker still wakes
    // for each narrow job; the excess ones must decide to sit out
    // under the pool lock without ever touching the caller's
    // stack-allocated job, which the counted participants may have
    // already retired by the time an excess worker gets scheduled.
    ThreadPool &pool = ThreadPool::shared();
    pool.forEach(1024, 8, 0, [](size_t) {});
    for (int round = 0; round < 200; ++round) {
        std::atomic<size_t> count{0};
        pool.forEach(2, 2, 1, [&](size_t) { count.fetch_add(1); });
        EXPECT_EQ(count.load(), 2u) << "round " << round;
    }
}

TEST(ThreadPool, MoreThreadsThanHardware)
{
    // Requesting more workers than cores must still complete and
    // cover every index (this host may have a single core).
    std::vector<std::atomic<int>> hits(300);
    for (auto &h : hits)
        h.store(0);
    parallelFor(300, 32, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, MatchesSerialSum)
{
    const size_t n = 10000;
    std::vector<uint64_t> vals(n);
    parallelFor(n, 0, [&](size_t i) { vals[i] = i * i; });
    uint64_t expect = 0;
    for (size_t i = 0; i < n; ++i)
        expect += i * i;
    EXPECT_EQ(std::accumulate(vals.begin(), vals.end(), uint64_t(0)),
              expect);
}

} // namespace
} // namespace dnastore
