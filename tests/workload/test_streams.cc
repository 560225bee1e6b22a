#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/cpu_features.hh"
#include "workload/address_streams.hh"

using namespace klebsim;
using namespace klebsim::workload;

namespace
{

/** One address, drawn through a one-element fillBatch. */
Addr
next(hw::AddressStream &s)
{
    Addr addr = 0;
    s.fillBatch(&addr, 1);
    return addr;
}

/**
 * The addresses a stream of @p spec yields, written out draw by
 * draw from Random's primitives: each random offset is one next64(),
 * each write flag one next64() unless its probability decides
 * without drawing, and each hot/cold choice one uniform().  A
 * sequential stream is a counter and draws nothing.
 */
class ReferenceStream
{
  public:
    ReferenceStream(const MemPatternSpec &spec, Addr base, Random rng)
        : spec_(spec), base_(base), choice_(rng), hot_(choice_.fork(1)),
          cold_(choice_.fork(2))
    {
        if (spec.kind != MemPatternSpec::Kind::hotCold)
            hot_ = rng;
    }

    Addr
    next()
    {
        using Kind = MemPatternSpec::Kind;
        if (spec_.kind == Kind::sequential) {
            const Addr a = base_ + offset_;
            offset_ += 64;
            if (offset_ >= spec_.footprintBytes)
                offset_ = 0;
            return a;
        }
        if (spec_.kind == Kind::randomUniform)
            return offset(hot_, base_, spec_.footprintBytes);
        const double p = spec_.hotProbability;
        const bool hot =
            p >= 1.0 || (p > 0.0 && choice_.uniform() < p);
        const std::uint64_t h = spec_.hotBytes;
        const std::uint64_t f = spec_.footprintBytes;
        return hot ? offset(hot_, base_, h)
                   : offset(cold_, base_ + h, f > h ? f - h : h);
    }

  private:
    void
    writeDraw(Random &r) const
    {
        if (spec_.writeFraction > 0.0 && spec_.writeFraction < 1.0)
            r.next64();
    }

    Addr
    offset(Random &r, Addr base, std::uint64_t footprint) const
    {
        const std::uint64_t off = r.next64() % footprint;
        writeDraw(r);
        return base + (off & ~Addr(7));
    }

    MemPatternSpec spec_;
    Addr base_;
    std::uint64_t offset_ = 0;
    Random choice_;
    Random hot_;
    Random cold_;
};

/** Fill @p n lanes with @p fill and check the lanes past them. */
template <typename Fill>
std::vector<Addr>
guardedFill(Fill fill, std::size_t n)
{
    constexpr Addr guard = 0xdeadbeefdeadbeefULL;
    std::vector<Addr> lanes(n + 8, guard);
    fill(lanes.data(), n);
    for (std::size_t i = n; i < lanes.size(); ++i)
        EXPECT_EQ(lanes[i], guard) << "wrote lane " << i << " of " << n;
    lanes.resize(n);
    return lanes;
}

/**
 * The specs VectorFillMatchesScalarFill covers: every kind, write
 * fraction, hot probability and footprint of the grid.  A hot/cold
 * spec's hot set is one grid footprint and its cold region another,
 * so that both sides see powers of two and other sizes.
 */
std::vector<MemPatternSpec>
streamGrid()
{
    const std::uint64_t footprints[] = {
        64, 256, 4096 + 64, 48 << 10, 96 << 10, 128 << 10,
        9830400, (1ULL << 40) + 8};
    std::vector<MemPatternSpec> grid;
    for (std::uint64_t f : footprints)
        grid.push_back(MemPatternSpec::sequential(f));
    for (double w : {0.0, 0.04, 0.3, 1.0}) {
        for (std::size_t i = 0; i < std::size(footprints); ++i) {
            const std::uint64_t f = footprints[i];
            grid.push_back(MemPatternSpec::randomUniform(f, w));
            const std::uint64_t cold =
                footprints[(i + 3) % std::size(footprints)];
            for (double p : {0.0, 0.5, 0.995, 1.0})
                grid.push_back(MemPatternSpec::hotCold(f, f + cold, p, w));
        }
    }
    return grid;
}

std::string
describe(const MemPatternSpec &s)
{
    return "kind " + std::to_string(static_cast<int>(s.kind)) +
           " footprint " + std::to_string(s.footprintBytes) + " hot " +
           std::to_string(s.hotBytes) + " p " +
           std::to_string(s.hotProbability) + " w " +
           std::to_string(s.writeFraction);
}

constexpr std::size_t batchSizes[] = {1, 7, 8, 9, 37, 192, 1000};

} // namespace

TEST(Streams, SequentialWalksAndWraps)
{
    auto s = makeAddressStream(MemPatternSpec::sequential(256), 0x1000,
                               Random(1));
    ASSERT_NE(s, nullptr);
    for (int round = 0; round < 2; ++round) {
        for (Addr off = 0; off < 256; off += 64)
            EXPECT_EQ(next(*s), 0x1000 + off);
    }
}

TEST(Streams, RandomStaysInFootprint)
{
    const std::uint64_t footprint = 1 << 20;
    auto s = makeAddressStream(
        MemPatternSpec::randomUniform(footprint), 0x4000000,
        Random(7));
    for (int i = 0; i < 1000; ++i) {
        Addr a = next(*s);
        EXPECT_GE(a, 0x4000000u);
        EXPECT_LT(a, 0x4000000u + footprint);
    }
}

/**
 * The streams drop their write flags but still draw them: from one
 * seed, a stream with write fraction 0.25 and one with 0 yield the
 * addresses the reference draw loop predicts with and without a
 * write draw per access, so the two sequences differ.
 */
TEST(Streams, WriteDrawsStillTaken)
{
    for (const MemPatternSpec &spec :
         {MemPatternSpec::randomUniform(1 << 20, 0.25),
          MemPatternSpec::randomUniform(1 << 20, 0.0),
          MemPatternSpec::hotCold(4096, 1 << 20, 0.5, 0.25),
          MemPatternSpec::hotCold(4096, 1 << 20, 0.5, 0.0)}) {
        SCOPED_TRACE(describe(spec));
        auto s = makeAddressStream(spec, 0, Random(9));
        ReferenceStream ref(spec, 0, Random(9));
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(next(*s), ref.next()) << "access " << i;
    }
    auto with = makeAddressStream(
        MemPatternSpec::randomUniform(1 << 20, 0.25), 0, Random(9));
    auto without = makeAddressStream(
        MemPatternSpec::randomUniform(1 << 20, 0.0), 0, Random(9));
    EXPECT_EQ(next(*with), next(*without)); // the first offset draw
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += next(*with) == next(*without);
    EXPECT_LT(same, 3);
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
        in_hot += next(*s) < hot ? 1 : 0;
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
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(next(*a), next(*b));
}

/**
 * Over every kind, write fraction (0, 0.04, 0.3, 1), hot probability
 * (0, 0.5, 0.995, 1), footprint (64 B to 2^40 + 8) and 16 seeds,
 * batches of 1, 7, 8, 9, 37, 192 and 1000 accesses, interleaved:
 * the scalar body yields the reference draw loop's addresses, and a
 * twin stream filled by the lane body yields the same addresses and
 * ends on the same next draws.  Neither body writes past its batch.
 * On a host without AVX-512F and AVX-512DQ the scalar half runs and
 * the test then skips.
 */
TEST(Streams, VectorFillMatchesScalarFill)
{
    const bool lanes = hostHasAvx512dq();
    for (const MemPatternSpec &spec : streamGrid()) {
        SCOPED_TRACE(describe(spec));
        for (std::uint64_t seed = 0; seed < 16; ++seed) {
            SCOPED_TRACE("seed " + std::to_string(seed));
            const Addr base = 0x100000000ULL * (seed + 1);
            auto scalar = makeAddressStream(spec, base, Random(seed));
            auto twin = makeAddressStream(spec, base, Random(seed));
            ReferenceStream ref(spec, base, Random(seed));
            for (std::size_t k = 0; k < 2 * std::size(batchSizes); ++k) {
                const std::size_t n =
                    batchSizes[(k * 3) % std::size(batchSizes)];
                const std::vector<Addr> s = guardedFill(
                    [&](Addr *a, std::size_t m) {
                        scalar->fillScalar(a, m);
                    },
                    n);
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(s[i], ref.next())
                        << "batch " << k << " lane " << i;
#if defined(__x86_64__)
                if (lanes) {
                    const std::vector<Addr> v = guardedFill(
                        [&](Addr *a, std::size_t m) {
                            twin->fillLanes(a, m);
                        },
                        n);
                    ASSERT_EQ(s, v) << "batch " << k;
                }
#endif
            }
            if (!lanes)
                continue;
            // The next draws of both twins, through the scalar body.
            const std::vector<Addr> s = guardedFill(
                [&](Addr *a, std::size_t m) { scalar->fillScalar(a, m); },
                1000);
            const std::vector<Addr> v = guardedFill(
                [&](Addr *a, std::size_t m) { twin->fillScalar(a, m); },
                1000);
            ASSERT_EQ(s, v) << "next draws";
        }
    }
    if (!lanes)
        GTEST_SKIP() << "the scalar fill matched; the lane fill needs "
                        "AVX-512F and AVX-512DQ, which this host lacks";
}
