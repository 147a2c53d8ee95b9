/**
 * @file
 * Unit tests for the set-associative LRU cache.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace rtm
{
namespace
{

TEST(Cache, ColdMissThenHit)
{
    Cache c(1 << 12, 2); // 4 KB, 2-way, 64 B lines
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1020, false).hit); // same line
    EXPECT_EQ(c.stats().read_misses, 1u);
    EXPECT_EQ(c.stats().reads, 3u);
}

TEST(Cache, GeometryDerivedFromCapacity)
{
    Cache c(1 << 20, 16, 64);
    EXPECT_EQ(c.sets(), (1u << 20) / 64 / 16);
    EXPECT_EQ(c.ways(), 16);
    EXPECT_EQ(c.lineBytes(), 64);
}

TEST(Cache, LruEviction)
{
    // Direct-ish: 2-way cache; fill one set with 3 conflicting lines.
    Cache c(1 << 12, 2);
    uint64_t set_stride = c.sets() * 64;
    Addr a = 0x40, b = a + set_stride, d = a + 2 * set_stride;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false); // a is now MRU
    c.access(d, false); // evicts b (LRU)
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(1 << 12, 2);
    uint64_t set_stride = c.sets() * 64;
    Addr a = 0x80;
    c.access(a, true); // dirty
    c.access(a + set_stride, false);
    CacheAccessResult r = c.access(a + 2 * set_stride, false);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_addr, a & ~63ull);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionIsSilent)
{
    Cache c(1 << 12, 2);
    uint64_t set_stride = c.sets() * 64;
    Addr a = 0xC0;
    c.access(a, false);
    c.access(a + set_stride, false);
    CacheAccessResult r = c.access(a + 2 * set_stride, false);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache c(1 << 12, 2);
    uint64_t set_stride = c.sets() * 64;
    Addr a = 0x100;
    c.access(a, false); // clean fill
    c.access(a, true);  // dirty via hit
    c.access(a + set_stride, false);
    CacheAccessResult r = c.access(a + 2 * set_stride, false);
    EXPECT_TRUE(r.writeback);
}

TEST(Cache, FrameIndexIsStableForALine)
{
    Cache c(1 << 12, 2);
    CacheAccessResult miss = c.access(0x555000, false);
    CacheAccessResult hit = c.access(0x555000, false);
    EXPECT_EQ(miss.frame_index, hit.frame_index);
    EXPECT_LT(hit.frame_index,
              c.sets() * static_cast<uint64_t>(c.ways()));
}

TEST(Cache, WorkingSetLargerThanCapacityThrashes)
{
    Cache c(1 << 12, 2); // 64 lines
    for (int rep = 0; rep < 3; ++rep)
        for (Addr a = 0; a < (1 << 13); a += 64)
            c.access(a, false);
    // 8 KB over 4 KB: second and third sweeps keep missing.
    EXPECT_GT(c.stats().missRate(), 0.9);
}

TEST(Cache, WorkingSetWithinCapacityHitsAfterWarmup)
{
    Cache c(1 << 12, 2);
    for (int rep = 0; rep < 4; ++rep)
        for (Addr a = 0; a < (1 << 11); a += 64)
            c.access(a, false);
    // 2 KB in 4 KB: only compulsory misses.
    EXPECT_EQ(c.stats().misses(), 32u);
}

TEST(Cache, FlushForgetsEverything)
{
    Cache c(1 << 12, 2);
    c.access(0x40, false);
    EXPECT_TRUE(c.contains(0x40));
    c.flush();
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, OneWayCacheIsDirectMapped)
{
    Cache c(1 << 12, 1); // 64 sets, 1 way
    EXPECT_EQ(c.ways(), 1);
    uint64_t set_stride = c.sets() * 64;
    Addr a = 0x40;
    c.access(a, false);
    EXPECT_TRUE(c.contains(a));
    // Any conflicting line evicts immediately: no other way to hide
    // in.
    c.access(a + set_stride, false);
    EXPECT_FALSE(c.contains(a));
    EXPECT_TRUE(c.contains(a + set_stride));
    // Frame index of a direct-mapped line is its set number.
    CacheAccessResult r = c.access(a, false);
    EXPECT_EQ(r.frame_index, (a / 64) % c.sets());
}

TEST(Cache, SingleSetCacheIsFullyAssociative)
{
    // Capacity == ways * line: exactly one set, fully associative.
    Cache c(4 * 64, 4);
    EXPECT_EQ(c.sets(), 1u);
    // Any 4 lines coexist regardless of address bits.
    Addr lines[4] = {0x0, 0x1000, 0x7f40, 0x123440};
    for (Addr a : lines)
        c.access(a, false);
    for (Addr a : lines)
        EXPECT_TRUE(c.contains(a));
    // A 5th line evicts the LRU (lines[0]).
    c.access(0x555000, false);
    EXPECT_FALSE(c.contains(lines[0]));
    EXPECT_TRUE(c.contains(lines[3]));
}

TEST(Cache, InvalidWaysFillInOrder)
{
    // Misses into a set with invalid ways must fill way 0, 1, 2, ...
    // in order: the racetrack frame mapping depends on the fill
    // order (frame_index = set * ways + way).
    Cache c(1 << 12, 4);
    uint64_t set_stride = c.sets() * 64;
    for (uint64_t i = 0; i < 4; ++i) {
        CacheAccessResult r = c.access(0x40 + i * set_stride, false);
        EXPECT_FALSE(r.hit);
        EXPECT_EQ(r.frame_index % 4, i) << "fill " << i;
    }
}

TEST(Cache, LruTieBreaksTowardLowestWay)
{
    // All ways filled at distinct ticks; the victim is always the
    // smallest stamp. After a flush, stamps survive in no way (all
    // invalid), so refills restart at way 0.
    Cache c(4 * 64, 4); // one set
    Addr a0 = 0, a1 = 0x1000, a2 = 0x2000, a3 = 0x3000;
    c.access(a0, false);
    c.access(a1, false);
    c.access(a2, false);
    c.access(a3, false);
    c.access(0x4000, false); // evicts a0 (oldest)
    EXPECT_FALSE(c.contains(a0));
    c.flush();
    CacheAccessResult r = c.access(0x5000, false);
    EXPECT_EQ(r.frame_index, 0u); // way 0 again after flush
}

TEST(CacheDeathTest, RejectsBadGeometry)
{
    EXPECT_EXIT(Cache(1000, 3, 64), ::testing::ExitedWithCode(1),
                ".*");
    // A set's recency word orders at most 16 ways.
    EXPECT_EXIT(Cache(17 * 64 * 4, 17, 64),
                ::testing::ExitedWithCode(1), "at most 16 ways");
    EXPECT_EXIT(Cache(1 << 12, 2, 60), ::testing::ExitedWithCode(1),
                "power of two");
}

} // namespace
} // namespace rtm
