#include <gtest/gtest.h>

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
    AccessOutcome out = f.mem.access(0x1000, false);
    EXPECT_EQ(out.level, MemLevel::dram);
    EXPECT_TRUE(out.l1Miss);
    EXPECT_TRUE(out.l2Miss);
    EXPECT_TRUE(out.llcRef);
    EXPECT_TRUE(out.llcMiss);
    EXPECT_EQ(out.cycles, f.cfg.latency.dram);
}

TEST(MemHierarchy, SecondAccessHitsL1)
{
    Fixture f;
    f.mem.access(0x1000, false);
    AccessOutcome out = f.mem.access(0x1000, false);
    EXPECT_EQ(out.level, MemLevel::l1);
    EXPECT_FALSE(out.l1Miss);
    EXPECT_FALSE(out.llcRef);
    EXPECT_EQ(out.cycles, f.cfg.latency.l1);
}

TEST(MemHierarchy, FillPopulatesAllLevels)
{
    Fixture f;
    f.mem.access(0x1000, false);
    EXPECT_TRUE(f.mem.l1().contains(0x1000));
    EXPECT_TRUE(f.mem.l2().contains(0x1000));
    EXPECT_TRUE(f.mem.llc().contains(0x1000));
    EXPECT_EQ(f.mem.probe(0x1000), MemLevel::l1);
}

TEST(MemHierarchy, L2HitAfterL1Eviction)
{
    Fixture f;
    f.mem.access(0x1000, false);
    // Evict from L1 by filling its set: L1 has 64 sets, so stride
    // 64*64 = 4096 collides; 8 ways => 9 fills evict the line.
    for (int i = 1; i <= 9; ++i)
        f.mem.access(0x1000 + static_cast<Addr>(i) * 4096, false);
    ASSERT_FALSE(f.mem.l1().contains(0x1000));
    ASSERT_TRUE(f.mem.l2().contains(0x1000));
    AccessOutcome out = f.mem.access(0x1000, false);
    EXPECT_EQ(out.level, MemLevel::l2);
    EXPECT_TRUE(out.l1Miss);
    EXPECT_FALSE(out.l2Miss);
    EXPECT_EQ(out.cycles, f.cfg.latency.l2);
}

TEST(MemHierarchy, ClflushInvalidatesEverywhere)
{
    Fixture f;
    f.mem.access(0x2000, false);
    AccessOutcome flush = f.mem.clflush(0x2000);
    EXPECT_EQ(flush.cycles, f.cfg.latency.clflush);
    EXPECT_EQ(flush.level, MemLevel::l1); // nearest level holding it
    EXPECT_EQ(f.mem.probe(0x2000), MemLevel::dram);
    AccessOutcome out = f.mem.access(0x2000, false);
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
    out.llcRef = true;
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

    core0.access(0x5000, false);
    // Core 1's private caches are cold but the LLC is shared.
    AccessOutcome out = core1.access(0x5000, false);
    EXPECT_EQ(out.level, MemLevel::llc);
    EXPECT_TRUE(out.llcRef);
    EXPECT_FALSE(out.llcMiss);
}
