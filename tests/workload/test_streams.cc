#include <gtest/gtest.h>

#include <set>

#include "workload/address_streams.hh"

using namespace klebsim;
using namespace klebsim::workload;

namespace
{

/** One reference, drawn through a one-element fillBatch. */
hw::MemRef
next(hw::AddressStream &s)
{
    Addr addr = 0;
    std::uint8_t write = 0;
    s.fillBatch(&addr, &write, 1);
    return {addr, write != 0};
}

} // namespace

TEST(Streams, SequentialWalksAndWraps)
{
    auto s = makeAddressStream(MemPatternSpec::sequential(256, 0.0),
                               0x1000, Random(1));
    ASSERT_NE(s, nullptr);
    for (int round = 0; round < 2; ++round) {
        for (Addr off = 0; off < 256; off += 64) {
            hw::MemRef ref = next(*s);
            EXPECT_EQ(ref.addr, 0x1000 + off);
            EXPECT_FALSE(ref.write);
        }
    }
}

TEST(Streams, StridedUsesStride)
{
    auto s = makeAddressStream(
        MemPatternSpec::strided(4096, 1024, 0.0), 0, Random(1));
    EXPECT_EQ(next(*s).addr, 0u);
    EXPECT_EQ(next(*s).addr, 1024u);
    EXPECT_EQ(next(*s).addr, 2048u);
    EXPECT_EQ(next(*s).addr, 3072u);
    EXPECT_EQ(next(*s).addr, 0u);
}

TEST(Streams, RandomStaysInFootprint)
{
    const std::uint64_t footprint = 1 << 20;
    auto s = makeAddressStream(
        MemPatternSpec::randomUniform(footprint), 0x4000000,
        Random(7));
    for (int i = 0; i < 1000; ++i) {
        Addr a = next(*s).addr;
        EXPECT_GE(a, 0x4000000u);
        EXPECT_LT(a, 0x4000000u + footprint);
    }
}

TEST(Streams, WriteFractionRespected)
{
    auto s = makeAddressStream(
        MemPatternSpec::randomUniform(1 << 20, 0.25), 0, Random(9));
    int writes = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        writes += next(*s).write ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.25, 0.02);
}

TEST(Streams, HotColdConcentration)
{
    const std::uint64_t hot = 4096;
    const std::uint64_t footprint = 1 << 24;
    auto s = makeAddressStream(
        MemPatternSpec::hotCold(hot, footprint, 0.9), 0,
        Random(11));
    int in_hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        in_hot += next(*s).addr < hot ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(in_hot) / n, 0.9, 0.02);
}

TEST(Streams, PointerChaseVisitsEveryLineOnce)
{
    const std::uint64_t footprint = 64 * 256; // 256 lines
    auto s = makeAddressStream(
        MemPatternSpec::pointerChase(footprint), 0x8000,
        Random(21));
    std::set<Addr> seen;
    for (int i = 0; i < 256; ++i) {
        Addr a = next(*s).addr;
        EXPECT_GE(a, 0x8000u);
        EXPECT_LT(a, 0x8000u + footprint);
        EXPECT_EQ(a % 64, 0u);
        seen.insert(a);
    }
    // A single permutation cycle: all 256 lines visited exactly
    // once per lap, then the walk repeats.
    EXPECT_EQ(seen.size(), 256u);
    EXPECT_EQ(next(*s).addr, 0x8000u + 0u * 64u); // cycle restart
}

TEST(Streams, PointerChaseIsNotSequential)
{
    auto s = makeAddressStream(
        MemPatternSpec::pointerChase(64 * 1024), 0, Random(22));
    int sequential_steps = 0;
    Addr prev = next(*s).addr;
    for (int i = 0; i < 500; ++i) {
        Addr cur = next(*s).addr;
        if (cur == prev + 64)
            ++sequential_steps;
        prev = cur;
    }
    // A random permutation has almost no sequential adjacency.
    EXPECT_LT(sequential_steps, 10);
}

TEST(Streams, NonePatternHasNoStream)
{
    EXPECT_EQ(makeAddressStream(MemPatternSpec::none_(), 0,
                                Random(1)),
              nullptr);
}

TEST(Streams, DeterministicForSeed)
{
    auto a = makeAddressStream(
        MemPatternSpec::hotCold(4096, 1 << 20, 0.8), 0, Random(3));
    auto b = makeAddressStream(
        MemPatternSpec::hotCold(4096, 1 << 20, 0.8), 0, Random(3));
    for (int i = 0; i < 500; ++i) {
        hw::MemRef ra = next(*a);
        hw::MemRef rb = next(*b);
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.write, rb.write);
    }
}
