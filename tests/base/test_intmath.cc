#include <gtest/gtest.h>

#include <vector>

#include "base/cpu_features.hh"
#include "base/intmath.hh"
#include "base/random.hh"

using namespace klebsim;

TEST(IntMath, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

TEST(IntMath, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0);
    EXPECT_EQ(floorLog2(2), 1);
    EXPECT_EQ(floorLog2(3), 1);
    EXPECT_EQ(floorLog2(4), 2);
    EXPECT_EQ(floorLog2(1023), 9);
    EXPECT_EQ(floorLog2(1024), 10);
}

TEST(IntMath, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0);
    EXPECT_EQ(ceilLog2(2), 1);
    EXPECT_EQ(ceilLog2(3), 2);
    EXPECT_EQ(ceilLog2(4), 2);
    EXPECT_EQ(ceilLog2(5), 3);
}

TEST(IntMath, Rounding)
{
    EXPECT_EQ(roundUp(0, 8), 0u);
    EXPECT_EQ(roundUp(1, 8), 8u);
    EXPECT_EQ(roundUp(8, 8), 8u);
    EXPECT_EQ(roundUp(9, 8), 16u);
    EXPECT_EQ(roundDown(7, 8), 0u);
    EXPECT_EQ(roundDown(8, 8), 8u);
    EXPECT_EQ(roundDown(15, 8), 8u);
}

TEST(IntMath, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(IntMath, SaturatingShl)
{
    EXPECT_EQ(saturatingShl(0, 63), 0u);
    EXPECT_EQ(saturatingShl(1, 0), 1u);
    EXPECT_EQ(saturatingShl(3, 4), 48u);
    EXPECT_EQ(saturatingShl(1, 63), 1ULL << 63);
    // One past the representable range saturates instead of
    // wrapping or shifting by >= the type width (UB).
    EXPECT_EQ(saturatingShl(2, 63), ~std::uint64_t(0));
    EXPECT_EQ(saturatingShl(1, 64), ~std::uint64_t(0));
    EXPECT_EQ(saturatingShl(5, 1000), ~std::uint64_t(0));
    EXPECT_EQ(saturatingShl(~std::uint64_t(0), 1),
              ~std::uint64_t(0));
    EXPECT_EQ(saturatingShl(7, -1), ~std::uint64_t(0));
}

namespace
{

#if defined(__x86_64__)
/** @p mod of eight lanes, where hostHasAvx512dq(). */
[[gnu::target("avx512f,avx512dq")]] void
laneModulo(const LaneModulo &mod, const std::uint64_t *in,
           std::uint64_t *out)
{
    _mm512_storeu_si512(out, mod(_mm512_loadu_si512(in)));
}
#endif

} // namespace

/**
 * LaneModulo matches % for powers of two and other divisors up to
 * 2^64 - 1, at the edges of the dividend range and at random
 * dividends.
 */
TEST(IntMath, LaneModuloMatchesRemainder)
{
    if (!hostHasAvx512dq())
        GTEST_SKIP() << "the lane modulo needs AVX-512F and AVX-512DQ, "
                        "which this host lacks";
#if defined(__x86_64__)
    const std::uint64_t top = ~std::uint64_t(0);
    Random rng(31);
    for (std::uint64_t d : std::initializer_list<std::uint64_t>{
             1ULL, 2ULL, 3ULL, 7ULL, 64ULL, 100ULL, 4160ULL, 49152ULL,
          131072ULL, 9830400ULL, (1ULL << 40) + 8, (1ULL << 53) + 1,
          (1ULL << 63) - 1, 1ULL << 63, (1ULL << 63) + 1, top - 1, top}) {
        std::vector<std::uint64_t> xs = {
            0, 1, d - 1, d, d + 1, 2 * d - 1, (1ULL << 53) - 1,
            1ULL << 53, (1ULL << 53) + 1, (1ULL << 63) - 1, 1ULL << 63,
            top - d, top - 1, top};
        for (int i = 0; i < 1000; ++i)
            xs.push_back(i % 2 ? rng.next64() : rng.next64() >> (i % 64));
        const LaneModulo mod(d);
        for (std::size_t i = 0; i < xs.size(); i += 8) {
            std::uint64_t in[8], out[8];
            for (std::size_t j = 0; j < 8; ++j)
                in[j] = xs[(i + j) % xs.size()];
            laneModulo(mod, in, out);
            for (std::size_t j = 0; j < 8; ++j)
                ASSERT_EQ(out[j], in[j] % d) << in[j] << " % " << d;
        }
    }
#endif
}
