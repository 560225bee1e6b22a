#include <gtest/gtest.h>

#include "hw/cache.hh"

using namespace klebsim;
using namespace klebsim::hw;

namespace
{

CacheGeometry
smallGeom()
{
    // 4 sets x 2 ways x 64 B = 512 B.
    return {512, 2, 64};
}

CacheGeometry
fourWayGeom()
{
    // 4 sets x 4 ways x 64 B = 1 KB.
    return {1024, 4, 64};
}

/** Line @p k of set 0 in the fourWayGeom() cache. */
constexpr Addr
set0Line(Addr k)
{
    return k * 4 * 64;
}

} // namespace

TEST(Cache, GeometrySets)
{
    EXPECT_EQ(smallGeom().sets(), 4u);
    CacheGeometry big{8 * 1024 * 1024, 16, 64};
    EXPECT_EQ(big.sets(), 8192u);
}

TEST(Cache, MissThenHit)
{
    Cache c("t", smallGeom());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x103f)); // same line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEviction)
{
    Cache c("t", smallGeom());
    // Three lines in set 0: line addresses 0, 4 and 8, and the set
    // is the line address modulo the 4 sets.
    const Addr a = 0, b = 4 * 64, d = 8 * 64;
    c.access(a);
    c.access(b);
    c.access(a);               // a most recent
    EXPECT_FALSE(c.access(d)); // evicts b (LRU)
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, LruEvictsLeastRecentlyTouchedAfterInterleavedHits)
{
    Cache c("t", fourWayGeom());
    const Addr a = set0Line(0), b = set0Line(1), d = set0Line(2),
               e = set0Line(3);
    for (Addr x : {a, b, d, e})
        c.access(x);
    // After these hits the recency order, newest first, is b, e, a, d.
    EXPECT_TRUE(c.access(d));
    EXPECT_TRUE(c.access(a));
    EXPECT_TRUE(c.access(e));
    EXPECT_TRUE(c.access(b));
    EXPECT_EQ(c.stats().evictions, 0u);

    EXPECT_FALSE(c.access(set0Line(4))); // evicts d
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_FALSE(c.contains(d));
    for (Addr x : {a, b, e})
        EXPECT_TRUE(c.contains(x));

    EXPECT_FALSE(c.access(set0Line(5))); // evicts a
    EXPECT_EQ(c.stats().evictions, 2u);
    EXPECT_FALSE(c.contains(a));
    for (Addr x : {b, e, set0Line(4), set0Line(5)})
        EXPECT_TRUE(c.contains(x));
}

TEST(Cache, LruFlushOfMidRecencyLineLeavesRoom)
{
    Cache c("t", fourWayGeom());
    const Addr a = set0Line(0), b = set0Line(1), d = set0Line(2),
               e = set0Line(3);
    for (Addr x : {a, b, d, e})
        c.access(x);
    c.access(a); // recency, newest first: a, e, d, b
    EXPECT_TRUE(c.flushLine(d));

    // The set has room again: the next miss evicts nothing.
    EXPECT_FALSE(c.access(set0Line(4)));
    EXPECT_EQ(c.stats().evictions, 0u);
    for (Addr x : {a, b, e, set0Line(4)})
        EXPECT_TRUE(c.contains(x));

    // The set is full again; the oldest survivor, b, goes next.
    EXPECT_FALSE(c.access(set0Line(5)));
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_FALSE(c.contains(b));
    for (Addr x : {a, e, set0Line(4), set0Line(5)})
        EXPECT_TRUE(c.contains(x));
}

TEST(Cache, LruRefillsAfterFlushAllWithoutEvicting)
{
    Cache c("t", fourWayGeom());
    for (Addr k = 0; k < 6; ++k)
        c.access(set0Line(k));
    EXPECT_EQ(c.stats().evictions, 2u);
    c.flushAll();

    for (Addr k = 10; k < 14; ++k)
        EXPECT_FALSE(c.access(set0Line(k)));
    EXPECT_EQ(c.stats().evictions, 2u);
    EXPECT_EQ(c.residentLines(), 4u);
    for (Addr k = 10; k < 14; ++k)
        EXPECT_TRUE(c.contains(set0Line(k)));

    c.access(set0Line(14)); // full again: evicts line 10
    EXPECT_EQ(c.stats().evictions, 3u);
    EXPECT_FALSE(c.contains(set0Line(10)));
}

TEST(Cache, ContainsHasNoSideEffects)
{
    Cache c("t", smallGeom());
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_EQ(c.stats().accesses(), 0u);
    c.access(0x40);
    EXPECT_TRUE(c.contains(0x40));
    EXPECT_EQ(c.stats().accesses(), 1u);
}

TEST(Cache, FlushLine)
{
    Cache c("t", smallGeom());
    c.access(0x40);
    EXPECT_TRUE(c.flushLine(0x40));
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.flushLine(0x40)); // already gone
    EXPECT_EQ(c.stats().flushes, 2u);
}

TEST(Cache, FlushAll)
{
    Cache c("t", smallGeom());
    for (Addr a = 0; a < 512; a += 64)
        c.access(a);
    EXPECT_GT(c.residentLines(), 0u);
    c.flushAll();
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache c("t", smallGeom());
    c.access(0x40);
    c.resetStats();
    EXPECT_EQ(c.stats().accesses(), 0u);
    EXPECT_TRUE(c.contains(0x40));
}

TEST(Cache, WorkingSetFitsNoCapacityMisses)
{
    // 8 KB, 4-way: footprint of 4 KB fits entirely.
    Cache c("t", {8192, 4, 64});
    for (int round = 0; round < 3; ++round)
        for (Addr a = 0; a < 4096; a += 64)
            c.access(a);
    // First round all miss, later rounds all hit.
    EXPECT_EQ(c.stats().misses, 64u);
    EXPECT_EQ(c.stats().hits, 128u);
}

TEST(Cache, StreamOverCapacityAlwaysMisses)
{
    Cache c("t", {8192, 4, 64});
    // 64 KB stream, 8x capacity: LRU gives zero reuse.
    for (int round = 0; round < 2; ++round)
        for (Addr a = 0; a < 65536; a += 64)
            c.access(a);
    EXPECT_EQ(c.stats().hits, 0u);
    EXPECT_EQ(c.stats().misses, 2048u);
}

TEST(Cache, MissRate)
{
    Cache c("t", smallGeom());
    c.access(0x40);
    c.access(0x40);
    c.access(0x40);
    c.access(0x80);
    EXPECT_NEAR(c.stats().missRate(), 0.5, 1e-12);
}

TEST(Cache, NonPowerOfTwoSetCount)
{
    // 3 sets via modulo indexing (192 B, 1 way).
    Cache c("t", {192, 1, 64});
    c.access(0 * 64);
    c.access(1 * 64);
    c.access(2 * 64);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(64));
    EXPECT_TRUE(c.contains(128));
    // 3*64 maps back to set 0, evicting addr 0.
    c.access(3 * 64);
    EXPECT_FALSE(c.contains(0));
}

TEST(CacheDeath, BadGeometry)
{
    EXPECT_DEATH(Cache("t", {100, 2, 64}), "size");
}

TEST(CacheDeath, LineSizeBelowTwo)
{
    // A 1-byte line would make every address a line address,
    // including the empty-way tag.
    EXPECT_DEATH(Cache("t", {64, 1, 1}),
                 "line size");
}
