#include <gtest/gtest.h>

#include "base/random.hh"
#include "hw/cpu_core.hh"
#include "workload/microbench.hh"

using namespace klebsim;
using namespace klebsim::hw;
using namespace klebsim::ticks_literals;
using klebsim::workload::FixedWorkSource;
using klebsim::workload::computeChunk;

namespace
{

/**
 * The core invariant of the lazy-attribution engine: no matter how
 * execution is sliced (sync granularity, preemptions, interleaved
 * charges), total attributed events are exact and monotone.
 */
class AttributionProperty
    : public ::testing::TestWithParam<Tick> // sync granularity
{
  protected:
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
};

} // namespace

TEST_P(AttributionProperty, TotalsExactForAnySyncGranularity)
{
    Fixture f;
    Tick step = GetParam();

    std::vector<WorkChunk> chunks;
    Random rng(9);
    std::uint64_t expected_instr = 0;
    std::uint64_t expected_branches = 0;
    for (int i = 0; i < 12; ++i) {
        std::uint64_t n = 40000 + rng.below(120000);
        WorkChunk c = computeChunk(n, 1.0 + rng.uniform() * 2.0);
        chunks.push_back(c);
        expected_instr += n;
        expected_branches += n / 8;
    }
    FixedWorkSource src(std::move(chunks));
    ExecContext ctx(&src);

    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(1000_ms);
    ASSERT_TRUE(res.completes);

    std::uint64_t prev_instr = 0;
    for (Tick t = step; t < res.available; t += step) {
        f.eq.runUntil(t);
        f.core.syncTo(t);
        // Monotone non-decreasing attribution.
        ASSERT_GE(ctx.instructionsRetired(), prev_instr);
        prev_instr = ctx.instructionsRetired();
    }
    f.eq.runUntil(res.available);
    f.core.syncTo(res.available);

    EXPECT_EQ(ctx.instructionsRetired(), expected_instr);
    EXPECT_EQ(at(ctx.totalEvents(), HwEvent::branchRetired),
              expected_branches);
    EXPECT_TRUE(ctx.exhausted());
    f.core.detachContext();
}

TEST_P(AttributionProperty, ChargesNeverCorruptWorkloadTotals)
{
    Fixture f;
    Tick step = GetParam();

    FixedWorkSource src(
        std::vector<WorkChunk>(10, computeChunk(150000, 2.0)));
    ExecContext ctx(&src);
    f.core.attachContext(&ctx);
    PrepareResult res = f.core.prepare(1000_ms);
    ASSERT_TRUE(res.completes);

    // Interleave kernel charges at every sync point; the workload's
    // own totals must still come out exact, just later.
    Tick end = res.available;
    Tick now = 0;
    while (now < end) {
        now = std::min(now + step, end);
        f.eq.runUntil(now);
        f.core.syncTo(now);
        ChargeSpec spec;
        spec.duration = 3_us;
        spec.footprintBytes = 2048;
        f.core.charge(spec);
        end += 3_us; // work shifted by the charge
        now = f.core.attributedUpTo();
        if (f.eq.curTick() < now)
            f.eq.runUntil(now);
    }
    f.eq.runUntil(end);
    f.core.syncTo(end);
    EXPECT_EQ(ctx.instructionsRetired(), 1500000u);
    EXPECT_TRUE(ctx.exhausted());
    f.core.detachContext();
}

INSTANTIATE_TEST_SUITE_P(
    SyncGranularities, AttributionProperty,
    ::testing::Values(usToTicks(7), usToTicks(50), usToTicks(100),
                      usToTicks(333), msToTicks(1), msToTicks(5)),
    [](const ::testing::TestParamInfo<Tick> &info) {
        return "step_" +
               std::to_string(info.param / tickPerUs) + "us";
    });
