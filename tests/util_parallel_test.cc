/**
 * @file
 * Unit tests for the thread pool and sharded map-reduce helpers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "util/logging.hh"
#include "util/parallel.hh"

namespace rtm
{
namespace
{

TEST(ThreadPool, SerialPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::vector<int> hits(100, 0);
    pool.parallelFor(hits.size(),
                     [&](size_t i) { hits[i] += 1; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop)
{
    ThreadPool pool(4);
    pool.parallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPool, NestedCallsRunInline)
{
    // A parallelFor issued from inside a worker must not deadlock
    // the pool; it runs serially on that worker.
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](size_t) {
        pool.parallelFor(8, [&](size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolDeathTest, FatalOnAWorkerExitsWithStatusOne)
{
    // A fatal error on a pool worker ends the process with status 1
    // and its message. The other workers stay busy meanwhile, so the
    // statement can only end through the fatal call; exiting through
    // the static destructors instead would have the global pool join
    // the worker that called it.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            ThreadPool::setGlobalThreads(4);
            std::atomic<bool> fired{false};
            parallelFor(4, [&](size_t i) {
                if (!fired.exchange(true))
                    rtm_fatal("cell %zu cannot be built", i);
                std::this_thread::sleep_for(std::chrono::seconds(5));
            });
        },
        testing::ExitedWithCode(1), "fatal: cell [0-9]+ cannot be built");
}

TEST(ThreadPool, GlobalThreadsCanBeOverridden)
{
    unsigned before = ThreadPool::global().threads();
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::global().threads(), 3u);
    ThreadPool::setGlobalThreads(before);
    EXPECT_EQ(ThreadPool::global().threads(), before);
}

TEST(ShardHelpers, ShardCountDependsOnlyOnSize)
{
    EXPECT_EQ(shardCount(0), 0u);
    EXPECT_EQ(shardCount(5), 5u);
    EXPECT_EQ(shardCount(64), 64u);
    EXPECT_EQ(shardCount(1000000), 64u);
}

TEST(ShardHelpers, ShardSizesPartitionTheWork)
{
    size_t n = 1003, shards = 64, sum = 0;
    for (size_t s = 0; s < shards; ++s) {
        size_t sz = shardSize(n, shards, s);
        EXPECT_GE(sz, n / shards);
        EXPECT_LE(sz, n / shards + 1);
        sum += sz;
    }
    EXPECT_EQ(sum, n);
}

TEST(ShardHelpers, MapReduceMatchesSerialFold)
{
    // Sum of squares over shards must equal the direct sum, and be
    // identical at 1 and 4 workers (reduction order is shard order).
    auto compute = [](unsigned threads) {
        ThreadPool::setGlobalThreads(threads);
        size_t n = 4321;
        size_t shards = shardCount(n);
        return shardedMapReduce<uint64_t>(
            shards,
            [&](size_t s) {
                uint64_t first = 0;
                for (size_t t = 0; t < s; ++t)
                    first += shardSize(n, shards, t);
                uint64_t acc = 0;
                uint64_t sz = shardSize(n, shards, s);
                for (uint64_t i = first; i < first + sz; ++i)
                    acc += i * i;
                return acc;
            },
            [](uint64_t &acc, const uint64_t &p) { acc += p; });
    };
    unsigned before = ThreadPool::global().threads();
    uint64_t serial = compute(1);
    uint64_t parallel = compute(4);
    ThreadPool::setGlobalThreads(before);
    uint64_t expect = 0;
    for (uint64_t i = 0; i < 4321; ++i)
        expect += i * i;
    EXPECT_EQ(serial, expect);
    EXPECT_EQ(parallel, expect);
}

TEST(AlignedShardSize, SumsToTotalAndAlignsAllButLast)
{
    // Fast-tier shards must be whole multiples of the batch granule
    // (except the last, which carries the remainder) so each
    // shard's draw layout is independent of the shard count.
    for (size_t n : {size_t(0), size_t(1), size_t(255),
                     size_t(256), size_t(4097), size_t(100003)}) {
        for (size_t shards : {size_t(1), size_t(3), size_t(64)}) {
            size_t sum = 0;
            for (size_t s = 0; s < shards; ++s) {
                size_t sz = alignedShardSize(n, shards, s, 256);
                if (s + 1 < shards) {
                    EXPECT_EQ(sz % 256, 0u)
                        << "n=" << n << " s=" << s;
                }
                sum += sz;
            }
            EXPECT_EQ(sum, n) << "n=" << n << " shards=" << shards;
        }
    }
    // Granule 1 degrades to the plain even split.
    EXPECT_EQ(alignedShardSize(10, 3, 0, 1), shardSize(10, 3, 0));
    EXPECT_EQ(alignedShardSize(10, 3, 2, 1), shardSize(10, 3, 2));
}

} // namespace
} // namespace rtm
