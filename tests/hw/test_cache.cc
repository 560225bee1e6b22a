#include <gtest/gtest.h>

#include "hw/cache.hh"

using namespace klebsim;
using namespace klebsim::hw;

namespace
{

CacheGeometry
smallGeom(ReplPolicy policy = ReplPolicy::lru)
{
    // 4 sets x 2 ways x 64 B = 512 B.
    return {512, 2, 64, policy};
}

} // namespace

TEST(Cache, GeometrySets)
{
    EXPECT_EQ(smallGeom().sets(), 4u);
    CacheGeometry big{8 * 1024 * 1024, 16, 64, ReplPolicy::lru};
    EXPECT_EQ(big.sets(), 8192u);
}

TEST(Cache, MissThenHit)
{
    Cache c("t", smallGeom(), Random(1));
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x103f, false)); // same line
    EXPECT_FALSE(c.access(0x1040, false)); // next line
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEviction)
{
    Cache c("t", smallGeom(), Random(1));
    // Three lines in set 0: line addresses 0, 4 and 8, and the set
    // is the line address modulo the 4 sets.
    const Addr a = 0, b = 4 * 64, d = 8 * 64;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);        // a most recent
    EXPECT_FALSE(c.access(d, false)); // evicts b (LRU)
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, ContainsHasNoSideEffects)
{
    Cache c("t", smallGeom(), Random(1));
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_EQ(c.stats().accesses(), 0u);
    c.access(0x40, false);
    EXPECT_TRUE(c.contains(0x40));
    EXPECT_EQ(c.stats().accesses(), 1u);
}

TEST(Cache, FlushLine)
{
    Cache c("t", smallGeom(), Random(1));
    c.access(0x40, false);
    EXPECT_TRUE(c.flushLine(0x40));
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.flushLine(0x40)); // already gone
    EXPECT_EQ(c.stats().flushes, 2u);
}

TEST(Cache, FlushAll)
{
    Cache c("t", smallGeom(), Random(1));
    for (Addr a = 0; a < 512; a += 64)
        c.access(a, false);
    EXPECT_GT(c.residentLines(), 0u);
    c.flushAll();
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache c("t", smallGeom(), Random(1));
    c.access(0x40, false);
    c.resetStats();
    EXPECT_EQ(c.stats().accesses(), 0u);
    EXPECT_TRUE(c.contains(0x40));
}

TEST(Cache, WorkingSetFitsNoCapacityMisses)
{
    // 8 KB, 4-way: footprint of 4 KB fits entirely.
    Cache c("t", {8192, 4, 64, ReplPolicy::lru}, Random(1));
    for (int round = 0; round < 3; ++round)
        for (Addr a = 0; a < 4096; a += 64)
            c.access(a, false);
    // First round all miss, later rounds all hit.
    EXPECT_EQ(c.stats().misses, 64u);
    EXPECT_EQ(c.stats().hits, 128u);
}

TEST(Cache, StreamOverCapacityAlwaysMisses)
{
    Cache c("t", {8192, 4, 64, ReplPolicy::lru}, Random(1));
    // 64 KB stream, 8x capacity: LRU gives zero reuse.
    for (int round = 0; round < 2; ++round)
        for (Addr a = 0; a < 65536; a += 64)
            c.access(a, false);
    EXPECT_EQ(c.stats().hits, 0u);
    EXPECT_EQ(c.stats().misses, 2048u);
}

TEST(Cache, MissRate)
{
    Cache c("t", smallGeom(), Random(1));
    c.access(0x40, false);
    c.access(0x40, false);
    c.access(0x40, false);
    c.access(0x80, false);
    EXPECT_NEAR(c.stats().missRate(), 0.5, 1e-12);
}

TEST(Cache, NonPowerOfTwoSetCount)
{
    // 3 sets via modulo indexing (192 B, 1 way).
    Cache c("t", {192, 1, 64, ReplPolicy::lru}, Random(1));
    c.access(0 * 64, false);
    c.access(1 * 64, false);
    c.access(2 * 64, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(64));
    EXPECT_TRUE(c.contains(128));
    // 3*64 maps back to set 0, evicting addr 0.
    c.access(3 * 64, false);
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, TreePlruIsSane)
{
    Cache c("t", {2048, 4, 64, ReplPolicy::treePlru}, Random(1));
    // Fill one set (8 sets, so stride 512 hits set 0).
    for (int i = 0; i < 4; ++i)
        c.access(static_cast<Addr>(i) * 512, false);
    // Touch way 0's line, then insert a new line: way 0 survives.
    c.access(0, false);
    c.access(4 * 512, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_EQ(c.residentLines(), 4u);
}

TEST(Cache, RandomPolicyEvictsSomething)
{
    Cache c("t", {2048, 4, 64, ReplPolicy::random}, Random(7));
    for (int i = 0; i < 5; ++i)
        c.access(static_cast<Addr>(i) * 512, false);
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_EQ(c.residentLines(), 4u);
}

TEST(CacheDeath, BadGeometry)
{
    EXPECT_DEATH(Cache("t", {100, 2, 64, ReplPolicy::lru},
                       Random(1)),
                 "size");
}

TEST(CacheDeath, LineSizeBelowTwo)
{
    // A 1-byte line would make every address a line address,
    // including the empty-way tag.
    EXPECT_DEATH(Cache("t", {64, 1, 1, ReplPolicy::lru}, Random(1)),
                 "line size");
}
