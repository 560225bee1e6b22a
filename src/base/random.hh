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
 * here so the address streams' sampled loops inline them.
 */

#ifndef KLEBSIM_BASE_RANDOM_HH
#define KLEBSIM_BASE_RANDOM_HH

#include <cstdint>

namespace klebsim
{

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
        state_ = old * 6364136223846793005ULL + inc_;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
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
     * Fork an independent child stream.  Children are derived from
     * the parent's state plus a caller-provided salt so distinct
     * subsystems never share a sequence.
     */
    Random fork(std::uint64_t salt);

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

} // namespace klebsim

#endif // KLEBSIM_BASE_RANDOM_HH
