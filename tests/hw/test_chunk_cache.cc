/**
 * @file
 * Chunk-engine costing: CpuCore derives each chunk's duration and
 * event counts from the chunk's own fields, the machine config and
 * (for streamed chunks) the sampled cache walk.  These tests pin
 * that a chunk's cost is independent of what ran before it, that it
 * follows later changes to the cost-model parameters of the config,
 * that the per-chunk sample cap is latched when the core is built,
 * and, with known answers, the engine's exact output on a mixed
 * workload.  The ChunkCostTable suite is named after the memo its
 * tests were written for; they pin the same properties without it.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "hw/cpu_core.hh"
#include "workload/address_streams.hh"
#include "workload/microbench.hh"

using namespace klebsim;
using namespace klebsim::hw;
using namespace klebsim::ticks_literals;
using klebsim::workload::FixedWorkSource;
using klebsim::workload::computeChunk;

namespace
{

struct Fixture
{
    explicit Fixture(MachineConfig config = MachineConfig::corei7_920())
        : cfg(config),
          llc("LLC", cfg.llc),
          core(0, cfg, eq, &llc)
    {
    }

    /** Run @p chunks to completion; @return total duration. */
    Tick
    run(const std::vector<WorkChunk> &chunks, ExecContext *ctxOut = nullptr)
    {
        FixedWorkSource src(chunks);
        ExecContext ctx(&src);
        core.attachContext(&ctx);
        Tick start = eq.curTick();
        Tick total = 0;
        while (true) {
            PrepareResult res = core.prepare(1000_ms);
            total += res.available;
            eq.runUntil(start + total);
            core.syncTo(start + total);
            if (res.completes)
                break;
        }
        if (ctxOut != nullptr)
            *ctxOut = ctx;
        core.detachContext();
        return total;
    }

    MachineConfig cfg;
    sim::EventQueue eq;
    Cache llc;
    CpuCore core;
};

/** A distinct streamless compute signature per @p variant. */
WorkChunk
variantChunk(unsigned variant)
{
    WorkChunk c = computeChunk(100000 + variant * 1000, 2.0);
    c.branches = 10000 + variant * 100;
    c.mispredictRate = 0.02 + 0.001 * static_cast<double>(variant);
    return c;
}

} // namespace

TEST(ChunkCostTable, RepeatedChunkMatchesColdExecution)
{
    // One execution vs the same chunk repeated: every repeat must
    // reproduce the first one's cost exactly, with events scaling by
    // exactly the repeat count.
    WorkChunk c = variantChunk(0);

    Fixture cold;
    ExecContext coldCtx(nullptr);
    Tick one = cold.run({c}, &coldCtx);

    Fixture warm;
    ExecContext warmCtx(nullptr);
    Tick eight = warm.run(std::vector<WorkChunk>(8, c), &warmCtx);

    EXPECT_EQ(eight, 8 * one);
    EXPECT_EQ(warmCtx.instructionsRetired(),
              8 * coldCtx.instructionsRetired());
    for (std::size_t i = 0; i < coldCtx.totalEvents().size(); ++i)
        EXPECT_EQ(warmCtx.totalEvents()[i],
                  8 * coldCtx.totalEvents()[i])
            << "event " << i;
}

TEST(ChunkCostTable, AlternatingSignaturesStayExact)
{
    // A phase boundary in miniature: two interleaved chunk shapes
    // must each keep their own cost, never each other's.
    WorkChunk a = variantChunk(1);
    WorkChunk b = variantChunk(2);

    Tick costA = Fixture().run({a});
    Tick costB = Fixture().run({b});
    ASSERT_NE(costA, costB);

    Fixture mixed;
    Tick total = mixed.run({a, b, a, b, a, b});
    EXPECT_EQ(total, 3 * costA + 3 * costB);
}

TEST(ChunkCostTable, EvictionCycleStaysExact)
{
    // Many distinct shapes in a cycle: each chunk's cost is the one
    // it has on a fresh core, however many other shapes ran first.
    std::vector<WorkChunk> cycle;
    Tick expected = 0;
    for (unsigned v = 0; v < 12; ++v) {
        WorkChunk c = variantChunk(v);
        cycle.push_back(c);
        expected += Fixture().run({c});
    }
    // Two full passes: the second pass runs on a core that has
    // already costed every shape once.
    std::vector<WorkChunk> twice = cycle;
    twice.insert(twice.end(), cycle.begin(), cycle.end());
    EXPECT_EQ(Fixture().run(twice), 2 * expected);
}

TEST(ChunkCostTable, BranchPenaltyChangeInvalidatesEntry)
{
    // The core reads the branch penalty from the config for every
    // chunk: the same chunk re-executed after the penalty changes
    // must cost more.
    WorkChunk c = variantChunk(3);

    Fixture f;
    Tick before = f.run({c});
    f.cfg.pipeline.branchMispredictPenalty *= 4;
    Tick after = f.run({c});
    EXPECT_GT(after, before);

    // And that cost is what a fresh core with the changed config
    // computes.
    MachineConfig hot = MachineConfig::corei7_920();
    hot.pipeline.branchMispredictPenalty *= 4;
    EXPECT_EQ(after, Fixture(hot).run({c}));
}

TEST(ChunkCostTable, PerFrequencyCostsStayIndependent)
{
    // The core latches coreFreqHz into its clock at construction
    // (mutating the config later cannot retune a live core): each
    // core's cost must be derived from its own clock and stay
    // exactly self-consistent under repetition.
    WorkChunk c = variantChunk(4);

    MachineConfig fast = MachineConfig::corei7_920();
    fast.coreFreqHz *= 2.0;

    Tick slowOne = Fixture().run({c});
    Tick fastOne = Fixture(fast).run({c});
    EXPECT_LT(fastOne, slowOne);

    EXPECT_EQ(Fixture().run(std::vector<WorkChunk>(5, c)),
              5 * slowOne);
    EXPECT_EQ(Fixture(fast).run(std::vector<WorkChunk>(5, c)),
              5 * fastOne);
}

TEST(ChunkCostTable, StallExposureChangeInvalidatesEntry)
{
    // Memory-flavoured knob: the chunk itself is unchanged, so only
    // the config change can move its cost.
    WorkChunk c = variantChunk(5);
    c.stallExposureScale = 1.0;

    Fixture f;
    Tick before = f.run({c});
    f.cfg.pipeline.memStallExposure = 0.95;
    Tick after = f.run({c});

    MachineConfig exposed = MachineConfig::corei7_920();
    exposed.pipeline.memStallExposure = 0.95;
    Tick cold = Fixture(exposed).run({c});
    EXPECT_EQ(after, cold);
    // (The compute-only chunk may be stall-free; the pinned
    // property is that the cost follows the config, not that the
    // knob moved it.)
    (void)before;
}

TEST(ChunkEngine, SampleCapLatchedAtConstruction)
{
    // The sampled-address lane is sized from memSampleCap when the
    // core is built.  Raising the cap in the config afterwards must
    // not raise the per-chunk sample count past it: the chunk still
    // issues exactly the construction-time cap of L1 lookups.
    Fixture f;
    const std::uint32_t cap = f.cfg.memSampleCap;
    ASSERT_EQ(cap, 192u);
    f.cfg.memSampleCap = 4096;

    auto stream = workload::makeAddressStream(
        workload::MemPatternSpec::randomUniform(64 * 1024 * 1024),
        0x10000000, Random(7));
    WorkChunk c;
    c.instructions = 50000;
    c.loads = 20000;
    c.stream = stream.get();
    f.run({c});
    EXPECT_EQ(f.core.mem().l1().stats().accesses(), cap);
}

namespace
{

/** FNV-1a over 64-bit words, folded in byte by byte. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

} // namespace

TEST(ChunkEngine, MixedWorkloadKnownAnswers)
{
    // 16 seeds of a workload mixing repeated compute chunks, streamed
    // memory chunks (sampled through the address lane), pre-executed
    // chunks and a flops chunk, across shape changes.  Each seed's
    // total ticks, instructions, flops and every event total are
    // folded into one FNV-1a digest and compared with a recorded
    // value: any change to the cost model, the sampled walk or the
    // attribution moves at least one digest.
    const std::uint64_t expected[16] = {
        0xbb29a46333ff484fULL, 0xc9158e594095d858ULL,
        0x957e30e2a3bccf1fULL, 0xbf63556b34631d5dULL,
        0x9b4fe7a3e7561e71ULL, 0x206b0e1138573f30ULL,
        0xe914f6090ad13c8fULL, 0x782d41a24ad6fc62ULL,
        0xe1788058b31a571cULL, 0x24af904283bd8fddULL,
        0x1b88780e3bf38261ULL, 0xfe565bfdf68b042aULL,
        0x96df25700178b7f2ULL, 0xa5f0af8e1aaa4c2eULL,
        0x97956a9a3f90c1adULL, 0x90911aed979ae800ULL,
    };
    for (unsigned seed = 0; seed < 16; ++seed) {
        workload::MemPatternSpec pat =
            (seed % 2 == 0)
                ? workload::MemPatternSpec::randomUniform(
                      (8u + seed) * 1024 * 1024)
                : workload::MemPatternSpec::sequential(
                      (4u + seed) * 1024 * 1024);
        auto stream = workload::makeAddressStream(
            pat, 0x10000000 + seed * 0x1000, Random(100 + seed));

        WorkChunk mem;
        mem.instructions = 50000 + seed * 777;
        mem.loads = 20000 + seed * 333;
        mem.stores = 5000 + seed * 111;
        mem.baseIpc = 1.5;
        mem.stream = stream.get();
        WorkChunk pre;
        pre.preExecuted = true;
        pre.instructions = 4000 + seed;
        at(pre.preEvents, HwEvent::instRetired) = pre.instructions;
        at(pre.preEvents, HwEvent::llcMiss) = 17 + seed;
        pre.preStallCycles = 9000;
        pre.baseIpc = 1.0;
        WorkChunk flopsy = computeChunk(60000 + seed * 101, 2.0);
        flopsy.flops = 1e5 + seed * 13.0;

        Fixture f;
        ExecContext ctx(nullptr);
        Tick ticks = f.run({variantChunk(seed % 6), mem,
                            variantChunk(seed % 6),
                            variantChunk(seed % 6), pre, flopsy,
                            variantChunk((seed + 1) % 6), mem},
                           &ctx);

        Fnv1a digest;
        digest.add(ticks);
        digest.add(ctx.instructionsRetired());
        digest.add(std::bit_cast<std::uint64_t>(ctx.flopsDone()));
        for (std::uint64_t n : ctx.totalEvents())
            digest.add(n);
        EXPECT_EQ(digest.h, expected[seed])
            << "seed " << seed << ": ticks " << ticks
            << ", instructions " << ctx.instructionsRetired()
            << ", flops " << ctx.flopsDone() << std::hex
            << ", digest 0x" << digest.h;
    }
}
