#include <gtest/gtest.h>

#include "hw/cpu_core.hh"
#include "workload/address_streams.hh"
#include "workload/microbench.hh"

using namespace klebsim;
using namespace klebsim::hw;
using namespace klebsim::ticks_literals;
using klebsim::workload::FixedWorkSource;
using klebsim::workload::computeChunk;
using klebsim::workload::computeSource;

namespace
{

struct Fixture
{
    Fixture()
        : cfg(MachineConfig::corei7_920()),
          llc("LLC", cfg.llc),
          core(0, cfg, eq, &llc)
    {
    }

    MachineConfig cfg;
    sim::EventQueue eq;
    Cache llc;
    CpuCore core;
};

} // namespace

TEST(CpuCore, PrepareComputesDuration)
{
    Fixture f;
    // 1e6 instructions at IPC 2 = 5e5 cycles @2.67 GHz ~ 187.3 us.
    FixedWorkSource src = computeSource(1, 1000000, 2.0);
    ExecContext ctx(&src);
    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(10_ms);
    EXPECT_TRUE(res.completes);
    double us = ticksToUs(res.available);
    EXPECT_NEAR(us, 187.3, 1.0);
    f.core.syncTo(f.eq.curTick());
    f.core.detachContext();
}

TEST(CpuCore, PrepareBoundedByHorizon)
{
    Fixture f;
    FixedWorkSource src = computeSource(100, 1000000, 2.0);
    ExecContext ctx(&src);
    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(1_ms);
    EXPECT_FALSE(res.completes);
    EXPECT_EQ(res.available, 1_ms);
    EXPECT_GE(ctx.preparedAhead(), 1_ms);
    // Not all 100 chunks were needed for a 1 ms horizon.
    EXPECT_LT(src.emitted(), 100u);
    f.core.syncTo(f.eq.curTick());
    f.core.detachContext();
}

TEST(CpuCore, SyncAttributesEventsExactly)
{
    Fixture f;
    FixedWorkSource src = computeSource(4, 100000, 2.0);
    ExecContext ctx(&src);
    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(10_ms);
    ASSERT_TRUE(res.completes);

    f.eq.runUntil(res.available);
    f.core.syncTo(res.available);
    EXPECT_EQ(ctx.instructionsRetired(), 400000u);
    EXPECT_EQ(at(ctx.totalEvents(), HwEvent::branchRetired),
              4 * 12500u);
    EXPECT_TRUE(ctx.exhausted());
    f.core.detachContext();
}

TEST(CpuCore, PartialSyncIsProRata)
{
    Fixture f;
    FixedWorkSource src = computeSource(1, 1000000, 2.0);
    ExecContext ctx(&src);
    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(10_ms);

    Tick half = res.available / 2;
    f.eq.runUntil(half);
    f.core.syncTo(half);
    // Half the chunk's instructions, within rounding.
    EXPECT_NEAR(static_cast<double>(ctx.instructionsRetired()),
                500000.0, 2.0);

    f.eq.runUntil(res.available);
    f.core.syncTo(res.available);
    EXPECT_EQ(ctx.instructionsRetired(), 1000000u); // exact total
    f.core.detachContext();
}

TEST(CpuCore, PmuSeesAttributedEvents)
{
    Fixture f;
    f.core.pmu().programFixed(0, true, true);
    f.core.pmu().programCounter(0, HwEvent::branchRetired, true,
                                true);
    f.core.pmu().globalEnableAll();

    FixedWorkSource src = computeSource(2, 100000, 2.0);
    ExecContext ctx(&src);
    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(10_ms);
    f.eq.runUntil(res.available);
    f.core.syncTo(res.available);
    EXPECT_EQ(f.core.pmu().fixedValue(0), 200000u);
    EXPECT_EQ(f.core.pmu().counterValue(0), 2 * 12500u);
    f.core.detachContext();
}

TEST(CpuCore, ContextSurvivesDetachReattach)
{
    Fixture f;
    FixedWorkSource src = computeSource(1, 1000000, 2.0);
    ExecContext ctx(&src);
    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(10_ms);
    Tick third = res.available / 3;
    f.eq.runUntil(third);
    f.core.syncTo(third);
    f.core.detachContext();
    std::uint64_t after_first = ctx.instructionsRetired();
    EXPECT_GT(after_first, 0u);

    // Re-attach later; remaining work picks up where it left off.
    f.eq.runUntil(third + 1_ms);
    f.core.attachContext(&ctx);
    Tick resume = f.eq.curTick();
    PrepareResult res2 = f.core.prepare(10_ms);
    EXPECT_TRUE(res2.completes);
    f.eq.runUntil(resume + res2.available);
    f.core.syncTo(resume + res2.available);
    EXPECT_EQ(ctx.instructionsRetired(), 1000000u);
    f.core.detachContext();
}

TEST(CpuCore, ChargeShiftsWorkAndCountsKernelEvents)
{
    Fixture f;
    f.core.pmu().programFixed(0, true, true);
    f.core.pmu().globalEnableAll();

    FixedWorkSource src = computeSource(1, 1000000, 2.0);
    ExecContext ctx(&src);
    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(10_ms);

    Tick quarter = res.available / 4;
    f.eq.runUntil(quarter);
    f.core.syncTo(quarter);
    std::uint64_t before_charge = ctx.instructionsRetired();

    ChargeSpec spec;
    spec.duration = 50_us;
    spec.priv = PrivLevel::kernel;
    f.core.charge(spec);
    EXPECT_EQ(f.core.attributedUpTo(), quarter + 50_us);

    // The charge consumed wall time but no workload progress.
    EXPECT_EQ(ctx.instructionsRetired(), before_charge);
    // Kernel instructions were counted (fixed ctr counts both privs).
    EXPECT_GT(f.core.pmu().fixedValue(0), before_charge);

    // The workload now finishes 50 us later than originally planned.
    Tick end = quarter + 50_us + (res.available - quarter);
    f.eq.runUntil(end);
    f.core.syncTo(end);
    EXPECT_EQ(ctx.instructionsRetired(), 1000000u);
    f.core.detachContext();
}

TEST(CpuCore, ChargeUserPrivFiltered)
{
    Fixture f;
    // Count user-mode only.
    f.core.pmu().programFixed(0, true, false);
    f.core.pmu().globalEnableAll();
    f.core.syncTo(f.eq.curTick());
    ChargeSpec spec;
    spec.duration = 10_us;
    spec.priv = PrivLevel::kernel;
    f.core.charge(spec);
    EXPECT_EQ(f.core.pmu().fixedValue(0), 0u);
}

TEST(CpuCore, ChargePollutesCache)
{
    Fixture f;
    f.core.syncTo(f.eq.curTick());
    std::uint64_t misses_before = f.core.mem().l1().stats().misses;
    ChargeSpec spec;
    spec.duration = 20_us;
    spec.footprintBytes = 16 * 1024;
    f.core.charge(spec);
    EXPECT_GT(f.core.mem().l1().stats().misses, misses_before);
}

TEST(CpuCore, MemoryChunksProduceCacheEvents)
{
    Fixture f;
    workload::MemPatternSpec pat =
        workload::MemPatternSpec::randomUniform(64 * 1024 * 1024);
    auto stream =
        workload::makeAddressStream(pat, 0x10000000, Random(5));

    WorkChunk chunk;
    chunk.instructions = 100000;
    chunk.loads = 30000;
    chunk.stores = 10000;
    chunk.baseIpc = 2.0;
    chunk.stream = stream.get();
    FixedWorkSource src({chunk});
    ExecContext ctx(&src);

    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(100_ms);
    ASSERT_TRUE(res.completes);
    f.eq.runUntil(res.available);
    f.core.syncTo(res.available);

    const EventVector &ev = ctx.totalEvents();
    EXPECT_EQ(at(ev, HwEvent::loadRetired), 30000u);
    EXPECT_EQ(at(ev, HwEvent::storeRetired), 10000u);
    EXPECT_EQ(at(ev, HwEvent::l1dReference), 40000u);
    // Random accesses over 64 MB: nearly everything misses, and the
    // scaled miss counts must stay within the physical bounds.
    EXPECT_GT(at(ev, HwEvent::llcMiss), 30000u);
    EXPECT_LE(at(ev, HwEvent::llcMiss),
              at(ev, HwEvent::llcReference));
    EXPECT_LE(at(ev, HwEvent::llcReference),
              at(ev, HwEvent::l1dReference));
    // Stalls must make the chunk slower than pure compute.
    EXPECT_GT(res.available, usToTicks(18.7));
    f.core.detachContext();
}

TEST(CpuCore, PreExecutedChunkUsesGivenCounts)
{
    Fixture f;
    WorkChunk chunk;
    chunk.preExecuted = true;
    chunk.instructions = 5000;
    at(chunk.preEvents, HwEvent::instRetired) = 5000;
    at(chunk.preEvents, HwEvent::llcMiss) = 123;
    chunk.preStallCycles = 10000;
    chunk.baseIpc = 1.0;
    FixedWorkSource src({chunk});
    ExecContext ctx(&src);
    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(10_ms);
    f.eq.runUntil(res.available);
    f.core.syncTo(res.available);
    EXPECT_EQ(at(ctx.totalEvents(), HwEvent::llcMiss), 123u);
    EXPECT_EQ(ctx.instructionsRetired(), 5000u);
    f.core.detachContext();
}

TEST(CpuCore, FixedCyclesChunk)
{
    Fixture f;
    WorkChunk chunk;
    chunk.instructions = 100;
    chunk.fixedCycles = 267000; // exactly 100 us at 2.67 GHz
    FixedWorkSource src({chunk});
    ExecContext ctx(&src);
    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(10_ms);
    EXPECT_NEAR(ticksToUs(res.available), 100.0, 0.5);
    f.core.syncTo(f.eq.curTick());
    f.core.detachContext();
}

TEST(CpuCore, RdtscAdvancesWithTime)
{
    Fixture f;
    std::uint64_t t0 = f.core.rdtsc();
    f.eq.runUntil(1_ms);
    std::uint64_t t1 = f.core.rdtsc();
    // 1 ms at 2.66 GHz reference clock.
    EXPECT_NEAR(static_cast<double>(t1 - t0), 2.66e6, 1e4);
}

TEST(CpuCore, FlopsAttribution)
{
    Fixture f;
    WorkChunk chunk = computeChunk(100000, 2.0);
    chunk.flops = 500000.0;
    FixedWorkSource src({chunk});
    ExecContext ctx(&src);
    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(10_ms);
    Tick half = res.available / 2;
    f.eq.runUntil(half);
    f.core.syncTo(half);
    EXPECT_NEAR(ctx.flopsDone(), 250000.0, 500.0);
    f.eq.runUntil(res.available);
    f.core.syncTo(res.available);
    EXPECT_NEAR(ctx.flopsDone(), 500000.0, 1e-6);
    f.core.detachContext();
}
