/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the simulation (timer jitter, memory
 * address streams, scheduler tie-breaking) draws from a seeded
 * Random stream so that whole experiments replay bit-for-bit.  The
 * generator is PCG32 (O'Neill, 2014): tiny state, good statistical
 * quality, cheap to fork into independent streams.
 *
 * The per-access draws (next32/next64/uniform/chance) are defined
 * here so the address streams' sampled loops inline them, as are
 * the jump-ahead (advance) and the eight-lane draws (Random::Lanes)
 * that the streams' vector bodies use.  PCG32's constants and output
 * function live only in this file, so the scalar and vector draws
 * cannot drift apart.
 */

#ifndef KLEBSIM_BASE_RANDOM_HH
#define KLEBSIM_BASE_RANDOM_HH

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace klebsim
{

namespace pcg
{

/** PCG32's state step: state' = multiplier * state + inc (mod 2^64). */
inline constexpr std::uint64_t multiplier = 6364136223846793005ULL;

/**
 * The state step applied k times, for an increment of 1: state ->
 * mul * state + add.  The state k draws ahead of s is mul * s + add
 * * inc, since every step is affine and linear in inc: mul =
 * multiplier^k and add = 1 + multiplier + ... + multiplier^(k-1).
 */
struct Jump
{
    std::uint64_t mul;
    std::uint64_t add;
};

/**
 * The Jump of k steps for k up to one lane block of four-draw steps,
 * the longest jump the streams take; entry k is entry k - 1 followed
 * by one more step.
 */
inline constexpr std::uint64_t maxJump = 32;
inline constexpr auto jumpTable = [] {
    std::array<Jump, maxJump + 1> t{};
    t[0] = {1, 0};
    for (std::uint64_t k = 1; k <= maxJump; ++k)
        t[k] = {t[k - 1].mul * multiplier, t[k - 1].add * multiplier + 1};
    return t;
}();

/**
 * The jumps of one half of Random::Lanes at a stride: lane j is
 * jumpTable[stride * j + half], as two 64-byte vectors.
 */
struct alignas(64) LaneJumps
{
    std::uint64_t mul[8];
    std::uint64_t add[8];
};

constexpr LaneJumps
laneJumps(unsigned stride, unsigned half)
{
    LaneJumps t{};
    for (unsigned j = 0; j < 8; ++j) {
        const Jump s = jumpTable[stride * j + half];
        t.mul[j] = s.mul;
        t.add[j] = s.add;
    }
    return t;
}

/** laneJumps() of strides 2 and 4, high half then low half. */
inline constexpr LaneJumps laneJumpTable[2][2] = {
    {laneJumps(2, 0), laneJumps(2, 1)},
    {laneJumps(4, 0), laneJumps(4, 1)},
};

/** PCG32's output permutation (XSH RR) of the pre-step state. */
constexpr std::uint32_t
output(std::uint64_t old)
{
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
}

#if defined(__x86_64__)
/**
 * output() of eight states at once, into the low 32 bits of each
 * lane; the high 32 bits hold leftover bits.  The rotate count is
 * below 32, so vprorvd rotates the low half and leaves the high
 * half as it is.  The all-lanes maskz forms read no undefined
 * vector (GCC 12's unmasked forms trip -Wmaybe-uninitialized).
 */
[[gnu::target("avx512f")]] inline __m512i
output8(__m512i old)
{
    const __m512i xorshifted = _mm512_maskz_srli_epi64(
        0xFF,
        _mm512_xor_si512(_mm512_maskz_srli_epi64(0xFF, old, 18), old),
        27);
    const __m512i rot = _mm512_maskz_srli_epi64(0xFF, old, 59);
    return _mm512_maskz_rorv_epi32(0xFFFF, xorshifted, rot);
}
#endif

} // namespace pcg

/**
 * A single deterministic PCG32 random stream.
 */
class Random
{
  public:
    /** Construct with an explicit seed and stream selector. */
    explicit Random(std::uint64_t seed = 0x853c49e6748fea9bULL,
                    std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** Next raw 32-bit value. */
    std::uint32_t
    next32()
    {
        std::uint64_t old = state_;
        state_ = old * pcg::multiplier + inc_;
        return pcg::output(old);
    }

    /**
     * Next raw 64-bit value from two next32 draws, the high half
     * drawn first.  The order is part of every recorded digest.
     */
    std::uint64_t
    next64()
    {
        const std::uint64_t hi = next32();
        const std::uint64_t lo = next32();
        return (hi << 32) | lo;
    }

    /**
     * Move the stream @p k draws ahead, exactly as k next32() calls
     * would: one multiply-add of a pcg::jumpTable entry per
     * pcg::maxJump draws, and one for the rest.
     */
    void
    advance(std::uint64_t k)
    {
        for (; k > pcg::maxJump; k -= pcg::maxJump)
            advance(pcg::maxJump);
        const pcg::Jump &j = pcg::jumpTable[k];
        state_ = j.mul * state_ + j.add * inc_;
    }

    /** Uniform integer in [0, bound) without modulo bias. */
    std::uint32_t below(std::uint32_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t between(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1) from 53 random bits. */
    double
    uniform()
    {
        return static_cast<double>(next64() >> 11) *
               (1.0 / 9007199254740992.0);
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Standard normal via Box-Muller (uses two uniforms). */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Bernoulli draw: true with probability p.  p <= 0 and p >= 1
     * decide without drawing.
     */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * The next32() draws chance(p) takes: 2, or 0 when p decides
     * without drawing.
     */
    static unsigned
    chanceDraws(double p)
    {
        return p <= 0.0 || p >= 1.0 ? 0 : 2;
    }

    /**
     * For 0 < p < 1, chance(p) is exactly (next64() >> 11) <
     * chanceBound(p): uniform() is (next64() >> 11) * 2^-53 with no
     * rounding, p * 2^53 is exact, and an integer lies below a real
     * exactly when it lies below the real's ceiling.
     */
    static std::uint64_t
    chanceBound(double p)
    {
        return static_cast<std::uint64_t>(
            std::ceil(p * 9007199254740992.0));
    }

    /**
     * Fork an independent child stream.  Children are derived from
     * the parent's state plus a caller-provided salt so distinct
     * subsystems never share a sequence.
     */
    Random fork(std::uint64_t salt);

    /** Same state and increment: the two streams draw alike. */
    bool operator==(const Random &) const = default;

#if defined(__x86_64__)
    class Lanes;
#endif

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

#if defined(__x86_64__)
/**
 * Eight next64() values at a time from a copy of a Random, where
 * hostHasAvx512dq() holds.  Counting the copy's next draw as draw 0,
 * lane j of peek() holds the value whose high half is draw stride *
 * j and whose low half is draw stride * j + 1: stride 2 gives the
 * next eight next64() calls, and stride 4 skips two draws after
 * each.  Each lane's state is its jump of the one state, one vpmullq
 * per half; the increment's share of the jumps is computed once, when
 * the lanes are built for a fill.
 */
class Random::Lanes
{
  public:
    /** Lanes over a copy of @p rng; @p stride is 2 or 4. */
    [[gnu::target("avx512f,avx512dq")]]
    Lanes(const Random &rng, unsigned stride)
        : rng_(rng), stride_(stride)
    {
        const pcg::LaneJumps *halves = pcg::laneJumpTable[stride / 4];
        const __m512i inc =
            _mm512_set1_epi64(static_cast<long long>(rng.inc_));
        for (int h = 0; h < 2; ++h) {
            mul_[h] = _mm512_load_si512(halves[h].mul);
            add_[h] = _mm512_mullo_epi64(
                _mm512_load_si512(halves[h].add), inc);
        }
    }

    /** The next eight values; the copy does not move. */
    [[gnu::target("avx512f,avx512dq")]] __m512i
    peek() const
    {
        const __m512i state =
            _mm512_set1_epi64(static_cast<long long>(rng_.state_));
        const __m512i hi = pcg::output8(
            _mm512_add_epi64(_mm512_mullo_epi64(mul_[0], state), add_[0]));
        const __m512i lo = pcg::output8(
            _mm512_add_epi64(_mm512_mullo_epi64(mul_[1], state), add_[1]));
        // (hi << 32) | lo: lo's leftover bits are its odd 32-bit
        // elements, which the blend takes from the shifted hi.
        return _mm512_mask_blend_epi32(
            0x5555, _mm512_maskz_slli_epi64(0xFF, hi, 32), lo);
    }

    /** Move the copy past @p k lanes' draws, stride * k. */
    void skip(std::size_t k) { rng_.advance(stride_ * k); }

    /** The copy, to write back into the generator it was made from. */
    const Random &random() const { return rng_; }

  private:
    __m512i mul_[2]; //!< per lane: multiplier^k, high then low half
    __m512i add_[2]; //!< per lane: the jump's increment term
    Random rng_;
    unsigned stride_;
};
#endif

} // namespace klebsim

#endif // KLEBSIM_BASE_RANDOM_HH
