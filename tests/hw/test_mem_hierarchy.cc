#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/cpu_features.hh"
#include "base/random.hh"
#include "hw/mem_hierarchy.hh"

using namespace klebsim;
using namespace klebsim::hw;

namespace
{

struct Fixture
{
    Fixture()
        : cfg(MachineConfig::corei7_920()),
          llc("LLC", cfg.llc),
          mem(cfg, &llc)
    {
    }

    MachineConfig cfg;
    Cache llc;
    MemHierarchy mem;
};

} // namespace

TEST(MemHierarchy, ColdMissGoesToDram)
{
    Fixture f;
    AccessOutcome out = f.mem.access(0x1000);
    EXPECT_EQ(out.level, MemLevel::dram);
    EXPECT_TRUE(out.l1Miss);
    EXPECT_TRUE(out.l2Miss);
    EXPECT_TRUE(out.llcMiss);
    EXPECT_EQ(out.cycles, f.cfg.latency.dram);
}

TEST(MemHierarchy, SecondAccessHitsL1)
{
    Fixture f;
    f.mem.access(0x1000);
    AccessOutcome out = f.mem.access(0x1000);
    EXPECT_EQ(out.level, MemLevel::l1);
    EXPECT_FALSE(out.l1Miss);
    EXPECT_FALSE(out.l2Miss);
    EXPECT_EQ(out.cycles, f.cfg.latency.l1);
}

TEST(MemHierarchy, FillPopulatesAllLevels)
{
    Fixture f;
    f.mem.access(0x1000);
    EXPECT_TRUE(f.mem.l1().contains(0x1000));
    EXPECT_TRUE(f.mem.l2().contains(0x1000));
    EXPECT_TRUE(f.mem.llc().contains(0x1000));
    EXPECT_EQ(f.mem.probe(0x1000), MemLevel::l1);
}

TEST(MemHierarchy, L2HitAfterL1Eviction)
{
    Fixture f;
    f.mem.access(0x1000);
    // Evict from L1 by filling its set: L1 has 64 sets, so stride
    // 64*64 = 4096 collides; 8 ways => 9 fills evict the line.
    for (int i = 1; i <= 9; ++i)
        f.mem.access(0x1000 + static_cast<Addr>(i) * 4096);
    ASSERT_FALSE(f.mem.l1().contains(0x1000));
    ASSERT_TRUE(f.mem.l2().contains(0x1000));
    AccessOutcome out = f.mem.access(0x1000);
    EXPECT_EQ(out.level, MemLevel::l2);
    EXPECT_TRUE(out.l1Miss);
    EXPECT_FALSE(out.l2Miss);
    EXPECT_EQ(out.cycles, f.cfg.latency.l2);
}

TEST(MemHierarchy, ClflushInvalidatesEverywhere)
{
    Fixture f;
    f.mem.access(0x2000);
    AccessOutcome flush = f.mem.clflush(0x2000);
    EXPECT_EQ(flush.cycles, f.cfg.latency.clflush);
    EXPECT_EQ(flush.level, MemLevel::l1); // nearest level holding it
    EXPECT_EQ(f.mem.probe(0x2000), MemLevel::dram);
    AccessOutcome out = f.mem.access(0x2000);
    EXPECT_EQ(out.level, MemLevel::dram);
}

TEST(MemHierarchy, ClflushAbsentLine)
{
    Fixture f;
    AccessOutcome flush = f.mem.clflush(0x9000);
    EXPECT_EQ(flush.level, MemLevel::dram);
}

TEST(MemHierarchy, OutcomeEventsLoad)
{
    AccessOutcome out;
    out.l1Miss = true;
    out.l2Miss = true;
    out.llcMiss = false;
    EventVector ev = MemHierarchy::outcomeEvents(out, false);
    EXPECT_EQ(at(ev, HwEvent::loadRetired), 1u);
    EXPECT_EQ(at(ev, HwEvent::storeRetired), 0u);
    EXPECT_EQ(at(ev, HwEvent::l1dReference), 1u);
    EXPECT_EQ(at(ev, HwEvent::l1dMiss), 1u);
    EXPECT_EQ(at(ev, HwEvent::l2Miss), 1u);
    EXPECT_EQ(at(ev, HwEvent::llcReference), 1u);
    EXPECT_EQ(at(ev, HwEvent::llcMiss), 0u);
}

TEST(MemHierarchy, OutcomeEventsStoreHit)
{
    AccessOutcome out; // L1 hit
    EventVector ev = MemHierarchy::outcomeEvents(out, true);
    EXPECT_EQ(at(ev, HwEvent::storeRetired), 1u);
    EXPECT_EQ(at(ev, HwEvent::l1dMiss), 0u);
    EXPECT_EQ(at(ev, HwEvent::llcReference), 0u);
}

TEST(MemHierarchy, SharedLlcVisibleAcrossHierarchies)
{
    MachineConfig cfg = MachineConfig::corei7_920();
    Cache llc("LLC", cfg.llc);
    MemHierarchy core0(cfg, &llc);
    MemHierarchy core1(cfg, &llc);

    core0.access(0x5000);
    // Core 1's private caches are cold but the LLC is shared.
    AccessOutcome out = core1.access(0x5000);
    EXPECT_EQ(out.level, MemLevel::llc);
    EXPECT_TRUE(out.l2Miss);
    EXPECT_FALSE(out.llcMiss);
}

namespace
{

/** One hierarchy per walk body over the same machine. */
struct TwinHierarchies
{
    explicit TwinHierarchies(const MachineConfig &c)
        : cfg(c), scalarLlc("LLC", cfg.llc), vectorLlc("LLC", cfg.llc),
          scalar(cfg, &scalarLlc), vector(cfg, &vectorLlc)
    {
    }

    MachineConfig cfg;
    Cache scalarLlc;
    Cache vectorLlc;
    MemHierarchy scalar;
    MemHierarchy vector;
};

/**
 * Batches of sampled addresses in three of the streams' shapes:
 * matmul's hot/cold mix (a 32 KB hot block, a 24 MB cold region),
 * uniform over 24 MB, and sequential lines over 3 MB.
 */
struct LaneSource
{
    static constexpr Addr base = 0x100000000ULL;
    static constexpr std::uint64_t big = 24ULL << 20;
    static constexpr std::uint64_t hot = 32ULL << 10;

    std::vector<Addr>
    batch(int pattern, std::size_t n)
    {
        std::vector<Addr> out(n);
        for (Addr &a : out) {
            if (pattern == 0) {
                a = rng.chance(0.9) ? base + rng.next64() % hot
                                    : base + hot + rng.next64() % big;
            } else if (pattern == 1) {
                a = base + rng.next64() % big;
            } else {
                a = base + seq;
                seq = (seq + 64) % (3ULL << 20);
            }
            a &= ~Addr(7);
        }
        return out;
    }

    Random rng{42};
    std::uint64_t seq = 0;
};

/**
 * Expect the same per-level stats, residency and tags, each set's in
 * the same recency order.
 */
void
expectSameState(const MemHierarchy &a, const MemHierarchy &b)
{
    const Cache *as[] = {&a.l1(), &a.l2(), &a.llc()};
    const Cache *bs[] = {&b.l1(), &b.l2(), &b.llc()};
    for (int i = 0; i < 3; ++i) {
        SCOPED_TRACE(as[i]->name());
        EXPECT_EQ(as[i]->stats().hits, bs[i]->stats().hits);
        EXPECT_EQ(as[i]->stats().misses, bs[i]->stats().misses);
        EXPECT_EQ(as[i]->stats().evictions, bs[i]->stats().evictions);
        EXPECT_EQ(as[i]->stats().flushes, bs[i]->stats().flushes);
        EXPECT_EQ(as[i]->residentLines(), bs[i]->residentLines());
        EXPECT_TRUE(as[i]->sameContents(*bs[i]));
    }
}

#if defined(__x86_64__)
/**
 * Walk @p lane through the scalar body of @p t's scalar twin and the
 * vector body of its vector twin (the allocating walks, or the
 * non-temporal ones), expect the same counts and return them.
 */
WalkCounts
walkBoth(TwinHierarchies &t, std::vector<Addr> lane, bool nonTemporal)
{
    const WalkCounts s =
        nonTemporal ? t.scalar.walkNonTemporalScalar(lane.data(), lane.size())
                    : t.scalar.walkScalar(lane.data(), lane.size());
    const WalkCounts v =
        nonTemporal ? t.vector.walkNonTemporalAvx512(lane.data(), lane.size())
                    : t.vector.walkAvx512(lane.data(), lane.size());
    EXPECT_EQ(s.l1Miss, v.l1Miss);
    EXPECT_EQ(s.l2Miss, v.l2Miss);
    EXPECT_EQ(s.llcMiss, v.llcMiss);
    return s;
}
#endif

} // namespace

/**
 * The vector walk bodies leave the same counts, stats, residency and
 * tags as the scalar ones, on the i7-920 (8/8/16 ways) and the Xeon
 * 8259CL (8/16/11 ways, modulo-indexed LLC).  Batches of 192 lanes,
 * each of one pattern, interleave with charge-style non-temporal
 * walks over a kernel scratch region.
 */
TEST(MemHierarchy, VectorWalkMatchesScalarWalk)
{
    if (!hostHasAvx512f())
        GTEST_SKIP() << "the vector walk needs AVX-512F, which this "
                        "host lacks";
#if defined(__x86_64__)
    for (const MachineConfig &cfg : {MachineConfig::corei7_920(),
                                     MachineConfig::xeon8259cl()}) {
        SCOPED_TRACE(cfg.name);
        TwinHierarchies t(cfg);
        ASSERT_TRUE(t.vector.vectorWalk());
        LaneSource src;
        constexpr Addr scratch = 0xffff880000000000ULL;
        constexpr std::uint64_t scratchLines = 1024;
        std::uint64_t cursor = 0;
        for (int batch = 0; batch < 600; ++batch) {
            SCOPED_TRACE("batch " + std::to_string(batch));
            walkBoth(t, src.batch(batch % 3, 192), false);
            if (batch % 4 == 0) {
                std::vector<Addr> nt(96);
                for (Addr &x : nt) {
                    x = scratch + cursor * 64;
                    cursor = (cursor + 1) % scratchLines;
                }
                walkBoth(t, nt, true);
            }
            if (::testing::Test::HasFailure())
                return;
        }
        expectSameState(t.scalar, t.vector);
        // The walks hit and missed at every level and filled L2's
        // sets (the Xeon's 35.75 MB LLC holds the 24 MB region).
        for (const Cache *c : {&t.scalar.l1(), &t.scalar.l2(),
                               &t.scalar.llc()}) {
            EXPECT_GT(c->stats().hits, 0u) << c->name();
            EXPECT_GT(c->stats().misses, 0u) << c->name();
        }
        EXPECT_GT(t.scalar.l2().stats().evictions, 0u);
    }
#endif
}

/**
 * Lanes built against a level-at-a-time walk, on both presets, each
 * walked twice (the second time warm) and every other one followed
 * by a charge-style non-temporal walk: one address 192 times; for
 * each level, one more line than the ways of that level and the
 * levels before it, cycled through one set of it so that every
 * lookup there evicts; two adjacent sets of each level alternating;
 * a lane that L1 absorbs, so that the L2 and LLC passes are empty;
 * a lane of lines never seen, which misses every level; and random
 * lanes of 0, 1, 7, 8, 9, 191 and 192 addresses.  Both bodies must
 * give the same counts and leave the same stats and tags.
 */
TEST(MemHierarchy, VectorWalkMatchesScalarWalkOnAdversarialLanes)
{
    if (!hostHasAvx512f())
        GTEST_SKIP() << "the vector walk needs AVX-512F, which this "
                        "host lacks";
#if defined(__x86_64__)
    for (const MachineConfig &cfg : {MachineConfig::corei7_920(),
                                     MachineConfig::xeon8259cl()}) {
        SCOPED_TRACE(cfg.name);
        TwinHierarchies t(cfg);
        ASSERT_TRUE(t.vector.vectorWalk());
        const CacheGeometry *levels[] = {&cfg.l1d, &cfg.l2, &cfg.llc};
        const Cache *scalarLevels[] = {&t.scalar.l1(), &t.scalar.l2(),
                                       &t.scalar.llc()};
        constexpr Addr base = 0x200000000ULL;
        constexpr Addr scratch = 0xffff880000000000ULL;
        std::uint64_t ntCursor = 0;
        int walked = 0;
        // Walk @p lane twice, and after every other lane a
        // non-temporal walk.  Returns the counts of the second, warm
        // walk and what the two added to each level's stats in the
        // scalar twin.
        struct Twice
        {
            WalkCounts warm;
            CacheStats added[3];
        };
        auto twice = [&](const std::vector<Addr> &lane) {
            Twice out;
            CacheStats before[3];
            for (int l = 0; l < 3; ++l)
                before[l] = scalarLevels[l]->stats();
            walkBoth(t, lane, false);
            out.warm = walkBoth(t, lane, false);
            for (int l = 0; l < 3; ++l) {
                const CacheStats &now = scalarLevels[l]->stats();
                out.added[l].hits = now.hits - before[l].hits;
                out.added[l].misses = now.misses - before[l].misses;
                out.added[l].evictions =
                    now.evictions - before[l].evictions;
            }
            if (++walked % 2 == 0) {
                std::vector<Addr> nt(96);
                for (Addr &x : nt) {
                    x = scratch + ntCursor * 64;
                    ntCursor = (ntCursor + 1) % 1024;
                }
                walkBoth(t, nt, true);
            }
            return out;
        };

        {
            SCOPED_TRACE("one address");
            EXPECT_EQ(twice(std::vector<Addr>(192, base + 0x48))
                          .warm.l1Miss,
                      0u);
        }
        std::uint32_t ways = 0;
        for (int level = 0; level < 3; ++level) {
            SCOPED_TRACE("level " + std::to_string(level));
            ways = std::max(ways, levels[level]->ways);
            // Each level's lines in a region of their own.
            const Addr region = base + (Addr(level + 1) << 36);
            const Addr stride = levels[level]->sets() * 64;
            // Whole rounds, so that the warm walk misses from its
            // first lookup.
            std::vector<Addr> cycle(192 - 192 % (ways + 1));
            for (std::size_t i = 0; i < cycle.size(); ++i)
                cycle[i] = region + (i % (ways + 1)) * stride;
            // Every lookup missed at this level, and all but those
            // that filled the set's empty ways evicted.
            const CacheStats added = twice(cycle).added[level];
            EXPECT_EQ(added.hits, 0u);
            EXPECT_EQ(added.misses, 2 * cycle.size());
            EXPECT_GE(added.evictions,
                      added.misses - levels[level]->ways);

            std::vector<Addr> alternate(192);
            for (std::size_t i = 0; i < alternate.size(); ++i)
                alternate[i] = region + 64 * (i % 2) +
                               ((i / 2) % (ways + 2)) * stride;
            twice(alternate);
        }
        {
            SCOPED_TRACE("absorbed by L1");
            std::vector<Addr> hot(192);
            for (std::size_t i = 0; i < hot.size(); ++i)
                hot[i] = base + 64 * ((i * 5) % 8) + i % 64;
            EXPECT_EQ(twice(hot).warm.l1Miss, 0u);
        }
        {
            SCOPED_TRACE("never seen");
            std::vector<Addr> cold(192);
            for (std::size_t i = 0; i < cold.size(); ++i)
                cold[i] = (Addr(3) << 40) + i * 64;
            const WalkCounts c = walkBoth(t, cold, false);
            EXPECT_EQ(c.llcMiss, cold.size());
        }
        LaneSource src;
        for (std::size_t n : {0, 1, 7, 8, 9, 191, 192}) {
            SCOPED_TRACE("length " + std::to_string(n));
            for (int pattern = 0; pattern < 3; ++pattern)
                twice(src.batch(pattern, n));
        }
        expectSameState(t.scalar, t.vector);
    }
#endif
}

/**
 * walk() takes the vector bodies exactly when the host has AVX-512F
 * and no level has more than 16 ways.
 */
TEST(MemHierarchy, VectorWalkNeedsAvx512fAndAtMost16Ways)
{
    auto withWays = [](CacheGeometry g, std::uint32_t ways) {
        return CacheGeometry{g.sets() * ways * g.lineSize, ways,
                             g.lineSize};
    };
    for (const MachineConfig &preset : {MachineConfig::corei7_920(),
                                        MachineConfig::xeon8259cl()}) {
        SCOPED_TRACE(preset.name);
        Cache presetLlc("LLC", preset.llc);
        EXPECT_EQ(MemHierarchy(preset, &presetLlc).vectorWalk(),
                  hostHasAvx512f());
        for (int level = 0; level < 3; ++level) {
            for (std::uint32_t ways : {16u, 17u}) {
                MachineConfig cfg = preset;
                CacheGeometry *g[] = {&cfg.l1d, &cfg.l2, &cfg.llc};
                *g[level] = withWays(*g[level], ways);
                Cache llc("LLC", cfg.llc);
                MemHierarchy mem(cfg, &llc);
                EXPECT_EQ(mem.vectorWalk(), ways <= 16 && hostHasAvx512f())
                    << "level " << level << ", " << ways << " ways";
            }
        }
    }
}
