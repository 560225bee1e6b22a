#include <gtest/gtest.h>

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

/** Expect the same counts, per-level stats and residency. */
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
    }
}

} // namespace

/**
 * The vector walk bodies leave the same counts, stats and residency
 * as the scalar ones, on the i7-920 (8/8/16 ways) and the Xeon
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
            std::vector<Addr> a = src.batch(batch % 3, 192);
            WalkCounts s = t.scalar.walkScalar(a.data(), a.size());
            WalkCounts v = t.vector.walkAvx512(a.data(), a.size());
            ASSERT_EQ(s.l1Miss, v.l1Miss) << "batch " << batch;
            ASSERT_EQ(s.l2Miss, v.l2Miss) << "batch " << batch;
            ASSERT_EQ(s.llcMiss, v.llcMiss) << "batch " << batch;

            if (batch % 4 == 0) {
                std::vector<Addr> nt(96);
                for (Addr &x : nt) {
                    x = scratch + cursor * 64;
                    cursor = (cursor + 1) % scratchLines;
                }
                s = t.scalar.walkNonTemporalScalar(nt.data(), nt.size());
                v = t.vector.walkNonTemporalAvx512(nt.data(),
                                                   nt.size());
                ASSERT_EQ(s.l1Miss, v.l1Miss) << "batch " << batch;
                ASSERT_EQ(s.l2Miss, v.l2Miss) << "batch " << batch;
                ASSERT_EQ(s.llcMiss, v.llcMiss) << "batch " << batch;
            }
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
