#include <gtest/gtest.h>

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
