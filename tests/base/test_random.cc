#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "base/random.hh"

using klebsim::Random;

TEST(Random, DeterministicForSameSeed)
{
    Random a(42, 7);
    Random b(42, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next32(), b.next32());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(42, 7);
    Random b(43, 7);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next32() == b.next32())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Random, DifferentStreamsDiffer)
{
    Random a(42, 1);
    Random b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next32() == b.next32())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Random, BelowRespectsBound)
{
    Random r(1);
    for (std::uint32_t bound : {1u, 2u, 7u, 100u, 1u << 20}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Random, BelowZeroIsZero)
{
    Random r(1);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Random, BetweenInclusive)
{
    Random r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.between(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, BetweenDegenerate)
{
    Random r(5);
    EXPECT_EQ(r.between(9, 9), 9);
    EXPECT_EQ(r.between(9, 3), 9);
}

TEST(Random, UniformInUnitInterval)
{
    Random r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Random, UniformRange)
{
    Random r(12);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform(-2.0, 3.0);
        ASSERT_GE(u, -2.0);
        ASSERT_LT(u, 3.0);
    }
}

TEST(Random, GaussianMoments)
{
    Random r(13);
    double sum = 0, sum2 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = r.gaussian(10.0, 2.0);
        sum += g;
        sum2 += g * g;
    }
    double mean = sum / n;
    double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Random, ChanceExtremes)
{
    Random r(14);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Random, ChanceProbability)
{
    Random r(15);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Random, ForkedStreamsIndependent)
{
    Random parent(99);
    Random a = parent.fork(1);
    Random b = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next32() == b.next32())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Random, ForkDeterministic)
{
    Random p1(99), p2(99);
    Random a = p1.fork(7);
    Random b = p2.fork(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

/**
 * Known answers for one fixed seed.  Every digest the benchmarks
 * record depends on these exact draws, including next64 drawing its
 * high half first, so a reordered or altered draw fails here.
 */
TEST(Random, KnownAnswers)
{
    Random r(2024, 5);
    EXPECT_EQ(r.next32(), 1539311182u);
    EXPECT_EQ(r.next32(), 3352353780u);
    EXPECT_EQ(r.next32(), 3447590798u);
    EXPECT_EQ(r.next64(), 0xcd8f795ba644cf9bULL);
    EXPECT_EQ(r.next64(), 0xf9b80af65f2c7fb9ULL);
    EXPECT_EQ(r.next64(), 0xbb07352dc70afb55ULL);
    // uniform() is its 53 drawn bits scaled by 2^-53, exactly.
    for (std::uint64_t bits :
         {0x00134124a9a03c23ULL, 0x0010aa2663462e71ULL,
          0x0011a0ad777ff624ULL, 0x0009fcff095c2226ULL,
          0x0013bbb8e0d0bbb8ULL, 0x00098514487326e8ULL})
        EXPECT_EQ(r.uniform(),
                  std::ldexp(static_cast<double>(bits), -53));
    for (bool coin : {true, false, false, false, false, false, false,
                      true})
        EXPECT_EQ(r.chance(0.5), coin);
    // Certain outcomes draw nothing: the next values are unchanged.
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    for (std::uint32_t v : {528u, 68u, 760u, 506u})
        EXPECT_EQ(r.below(1000), v);
    Random child = r.fork(9);
    EXPECT_EQ(child.next32(), 4160501605u);
    EXPECT_EQ(child.next32(), 3285396686u);
    EXPECT_EQ(r.next32(), 3879810155u);
}
