#include <gtest/gtest.h>

#include "kernel/system.hh"
#include "tools/instrumented.hh"
#include "workload/microbench.hh"

using namespace klebsim;
using namespace klebsim::kernel;
using namespace klebsim::tools;
using klebsim::workload::FixedWorkSource;
using klebsim::workload::computeSource;

namespace
{

CostModel
quietCosts()
{
    CostModel c;
    c.costSigma = 0.0;
    c.runSigma = 0.0;
    return c;
}

struct MemFixture
{
    MemFixture()
        : cfg(hw::MachineConfig::corei7_920()),
          llc("LLC", cfg.llc), mem(cfg, &llc)
    {
    }

    hw::MachineConfig cfg;
    hw::Cache llc;
    hw::MemHierarchy mem;
};

} // namespace

TEST(InstrumentedSource, InsertsPointsAtSpacing)
{
    MemFixture f;
    FixedWorkSource inner = computeSource(10, 100000, 2.0);
    InstrumentedSource::Options opts;
    opts.readEveryInstr = 250000;
    opts.pointCycles = 1000;
    opts.initCycles = 5000;
    opts.finiCycles = 2000;
    InstrumentedSource src(&inner, opts);

    int points = 0, init_chunks = 0, inner_chunks = 0;
    std::uint64_t total_instr = 0;
    bool first = true;
    while (!src.done()) {
        hw::WorkChunk c = src.nextChunk(f.mem);
        total_instr += c.instructions;
        if (c.fixedCycles != 0) {
            EXPECT_EQ(c.priv, hw::PrivLevel::kernel);
            if (first)
                ++init_chunks;
            else
                ++points;
        } else {
            ++inner_chunks;
        }
        first = false;
    }
    EXPECT_EQ(init_chunks, 1);
    EXPECT_EQ(inner_chunks, 10);
    // 1e6 inner instructions / 250k spacing = 4 points, one of
    // which is the trailing fini chunk.
    EXPECT_EQ(points, 4);
    EXPECT_EQ(src.readPoints(), 3u);
}

TEST(InstrumentedSource, NoPointsWhenSpacingExceedsWork)
{
    MemFixture f;
    FixedWorkSource inner = computeSource(2, 1000, 2.0);
    InstrumentedSource::Options opts;
    opts.readEveryInstr = 1000000;
    opts.pointCycles = 1000;
    InstrumentedSource src(&inner, opts);
    int chunks = 0;
    while (!src.done()) {
        src.nextChunk(f.mem);
        ++chunks;
    }
    EXPECT_EQ(src.readPoints(), 0u);
    EXPECT_EQ(chunks, 3); // 2 inner + fini
}

TEST(InstrumentedSource, ResetReplays)
{
    MemFixture f;
    FixedWorkSource inner = computeSource(4, 100000, 2.0);
    InstrumentedSource::Options opts;
    opts.readEveryInstr = 150000;
    opts.pointCycles = 100;
    InstrumentedSource src(&inner, opts);
    int chunks_a = 0;
    while (!src.done()) {
        src.nextChunk(f.mem);
        ++chunks_a;
    }
    src.reset();
    int chunks_b = 0;
    while (!src.done()) {
        src.nextChunk(f.mem);
        ++chunks_b;
    }
    EXPECT_EQ(chunks_a, chunks_b);
}

TEST(InstrumentedTool, PapiProfileCapturesTotals)
{
    System sys(hw::MachineConfig::corei7_920(), 1, quietCosts());
    auto opts = InstrumentedToolSession::papi(2000000);
    opts.events = {hw::HwEvent::instRetired};
    InstrumentedToolSession tool(sys, opts);

    FixedWorkSource inner = computeSource(10, 1000000, 2.0);
    hw::WorkSource *wrapped = tool.wrap(&inner);
    Process *target =
        sys.kernel().createWorkload("t", wrapped, 0);
    tool.profile(target);
    sys.run();

    EXPECT_EQ(target->state(), ProcState::zombie);
    ASSERT_EQ(tool.totals().size(), 1u);
    // Instrumentation chunks run at kernel priv: the user-mode
    // count is exactly the inner workload's instructions.
    EXPECT_EQ(tool.totals()[0], 10000000u);
    // 10 M instructions at 2 M spacing: points after 2,4,6,8,10 M.
    EXPECT_EQ(tool.readPoints(), 5u);
}

TEST(InstrumentedTool, PapiInitDominatesShortRuns)
{
    CostModel costs = quietCosts();
    System sys(hw::MachineConfig::corei7_920(), 1, costs);

    FixedWorkSource base_src = computeSource(10, 1000000, 2.0);
    Process *base =
        sys.kernel().createWorkload("base", &base_src, 1);
    sys.kernel().startProcess(base);

    auto opts = InstrumentedToolSession::papi(100000000);
    InstrumentedToolSession tool(sys, opts);
    FixedWorkSource inner = computeSource(10, 1000000, 2.0);
    hw::WorkSource *wrapped = tool.wrap(&inner);
    Process *target =
        sys.kernel().createWorkload("t", wrapped, 0);
    tool.profile(target);
    sys.run();

    // ~1.9 ms of work + 15.5 ms PAPI init: massive relative cost.
    EXPECT_GT(target->lifetime(), base->lifetime() * 5);
}

TEST(InstrumentedTool, LimitRequiresPatch)
{
    System sys(hw::MachineConfig::corei7_920(), 1, quietCosts());
    auto opts = InstrumentedToolSession::limit(1000000, false);
    InstrumentedToolSession tool(sys, opts);
    EXPECT_FALSE(tool.supported());
}

TEST(InstrumentedTool, LimitCheaperThanPapiPerPoint)
{
    auto papi = InstrumentedToolSession::papi(1);
    auto limit = InstrumentedToolSession::limit(1, true);
    EXPECT_LT(limit.pointCost, papi.pointCost);
    EXPECT_LT(limit.initCost, papi.initCost);
}
