#include <gtest/gtest.h>

#include "hw/cpu_core.hh"
#include "workload/phase_workload.hh"

using namespace klebsim;
using namespace klebsim::workload;

namespace
{

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

Phase
simplePhase(const std::string &name, std::uint64_t instr)
{
    Phase p;
    p.name = name;
    p.instructions = instr;
    p.loadFrac = 0.2;
    p.storeFrac = 0.1;
    p.branchFrac = 0.15;
    p.mem = MemPatternSpec::randomUniform(1 << 20);
    return p;
}

/** The next address of @p s, drawn through a one-element fillBatch. */
Addr
firstAddr(hw::AddressStream &s)
{
    Addr addr = 0;
    s.fillBatch(&addr, 1);
    return addr;
}

} // namespace

TEST(PhaseWorkload, EmitsExactInstructionBudget)
{
    MemFixture f;
    PhaseWorkload wl("t", {simplePhase("a", 250000)}, 0x1000,
                     Random(1), 100000);
    std::uint64_t total = 0;
    int chunks = 0;
    while (!wl.done()) {
        hw::WorkChunk c = wl.nextChunk(f.mem);
        total += c.instructions;
        ++chunks;
    }
    EXPECT_EQ(total, 250000u);
    EXPECT_EQ(chunks, 3); // 100k + 100k + 50k
    EXPECT_EQ(wl.totalInstructions(), 250000u);
}

TEST(PhaseWorkload, PhaseTransitions)
{
    MemFixture f;
    PhaseWorkload wl("t",
                     {simplePhase("a", 100000),
                      simplePhase("b", 100000)},
                     0x1000, Random(1), 60000);
    EXPECT_EQ(wl.currentPhase(), 0u);
    wl.nextChunk(f.mem); // 60k of a
    EXPECT_EQ(wl.currentPhase(), 0u);
    wl.nextChunk(f.mem); // 40k of a -> phase b
    EXPECT_EQ(wl.currentPhase(), 1u);
    wl.nextChunk(f.mem);
    wl.nextChunk(f.mem);
    EXPECT_TRUE(wl.done());
}

TEST(PhaseWorkload, ChunkMixMatchesFractions)
{
    MemFixture f;
    Phase p = simplePhase("a", 100000);
    p.mulFrac = 0.05;
    p.fpFrac = 0.3;
    PhaseWorkload wl("t", {p}, 0x1000, Random(1), 100000);
    hw::WorkChunk c = wl.nextChunk(f.mem);
    EXPECT_EQ(c.instructions, 100000u);
    EXPECT_EQ(c.loads, 20000u);
    EXPECT_EQ(c.stores, 10000u);
    EXPECT_EQ(c.branches, 15000u);
    EXPECT_EQ(c.muls, 5000u);
    EXPECT_EQ(c.fpops, 30000u);
}

TEST(PhaseWorkload, FlopsSplitAcrossChunks)
{
    MemFixture f;
    Phase p = simplePhase("a", 200000);
    p.flops = 1000.0;
    PhaseWorkload wl("t", {p}, 0x1000, Random(1), 100000);
    hw::WorkChunk c1 = wl.nextChunk(f.mem);
    hw::WorkChunk c2 = wl.nextChunk(f.mem);
    EXPECT_DOUBLE_EQ(c1.flops + c2.flops, 1000.0);
    EXPECT_DOUBLE_EQ(wl.totalFlops(), 1000.0);
}

TEST(PhaseWorkload, ResetReplaysIdentically)
{
    MemFixture f;
    PhaseWorkload wl("t", {simplePhase("a", 150000)}, 0x1000,
                     Random(5), 50000);
    std::vector<Addr> first;
    while (!wl.done()) {
        hw::WorkChunk c = wl.nextChunk(f.mem);
        first.push_back(c.stream ? firstAddr(*c.stream) : 0);
    }
    wl.reset();
    std::size_t i = 0;
    while (!wl.done()) {
        hw::WorkChunk c = wl.nextChunk(f.mem);
        EXPECT_EQ(c.stream ? firstAddr(*c.stream) : 0, first[i++]);
    }
}

TEST(PhaseWorkload, KernelPrivPhases)
{
    MemFixture f;
    Phase p = simplePhase("krn", 50000);
    p.priv = hw::PrivLevel::kernel;
    PhaseWorkload wl("t", {p}, 0x1000, Random(1));
    hw::WorkChunk c = wl.nextChunk(f.mem);
    EXPECT_EQ(c.priv, hw::PrivLevel::kernel);
}

TEST(PhaseWorkload, ZeroInstructionPhaseSkipped)
{
    MemFixture f;
    Phase zero = simplePhase("z", 0);
    PhaseWorkload wl("t", {zero, simplePhase("a", 1000)}, 0x1000,
                     Random(1));
    EXPECT_EQ(wl.currentPhase(), 1u);
    wl.nextChunk(f.mem);
    EXPECT_TRUE(wl.done());
}

TEST(PhaseWorkload, RepeatAndConcatHelpers)
{
    std::vector<Phase> body = {simplePhase("x", 10),
                               simplePhase("y", 20)};
    auto repeated = repeatPhases(body, 3);
    EXPECT_EQ(repeated.size(), 6u);
    EXPECT_EQ(repeated[4].name, "x");
    auto both = concatPhases({simplePhase("pre", 5)}, repeated);
    EXPECT_EQ(both.size(), 7u);
    EXPECT_EQ(both[0].name, "pre");
}
