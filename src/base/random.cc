#include "random.hh"

#include <cmath>

namespace klebsim
{

Random::Random(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1) | 1u)
{
    // Standard PCG32 seeding sequence.
    next32();
    state_ += seed;
    next32();
}

std::uint32_t
Random::below(std::uint32_t bound)
{
    if (bound == 0)
        return 0;
    // Lemire-style rejection to avoid modulo bias.
    std::uint32_t threshold = (-bound) % bound;
    for (;;) {
        std::uint32_t r = next32();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Random::between(std::int64_t lo, std::int64_t hi)
{
    if (hi <= lo)
        return lo;
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    // Span can exceed 32 bits; compose from two draws when needed.
    if (span <= 0xffffffffULL)
        return lo + below(static_cast<std::uint32_t>(span));
    return lo + static_cast<std::int64_t>(next64() % span);
}

double
Random::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

double
Random::gaussian()
{
    // Box-Muller; guard against log(0).
    double u1 = uniform();
    if (u1 < 1e-300)
        u1 = 1e-300;
    double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * M_PI * u2);
}

double
Random::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

Random
Random::fork(std::uint64_t salt)
{
    std::uint64_t child_seed = next64() ^ (salt * 0x9e3779b97f4a7c15ULL);
    std::uint64_t child_stream = next64() + salt;
    return Random(child_seed, child_stream);
}

} // namespace klebsim
