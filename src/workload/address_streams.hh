/**
 * @file
 * Memory reference generators.
 *
 * Each workload phase owns an AddressStream describing its access
 * pattern; the CPU pulls sampled references from it while executing
 * chunks.  Patterns provided: sequential (a line-by-line walk),
 * uniform-random over a footprint, and hot/cold (a small hot set
 * absorbing most accesses in front of a large cold footprint — the
 * knob that sets a workload's MPKI).
 */

#ifndef KLEBSIM_WORKLOAD_ADDRESS_STREAMS_HH
#define KLEBSIM_WORKLOAD_ADDRESS_STREAMS_HH

#include <cstdint>
#include <memory>

#include "base/random.hh"
#include "base/types.hh"
#include "hw/exec_types.hh"

namespace klebsim::workload
{

/** Declarative pattern description (instantiated per phase). */
struct MemPatternSpec
{
    enum class Kind
    {
        none,          //!< phase performs no memory accesses
        sequential,    //!< 64-byte-line walk over the footprint
        randomUniform, //!< uniform random within the footprint
        hotCold,       //!< hot set + occasional cold excursions
    };

    Kind kind = Kind::none;
    std::uint64_t footprintBytes = 0;

    /** hotCold: size of the hot set. */
    std::uint64_t hotBytes = 32 * 1024;

    /** hotCold: probability an access goes to the hot set. */
    double hotProbability = 0.9;

    /** Fraction of references that are writes. */
    double writeFraction = 0.3;

    /** @{ Convenience factories. */
    static MemPatternSpec none_();
    static MemPatternSpec sequential(std::uint64_t footprint,
                                     double write_frac = 0.3);
    static MemPatternSpec randomUniform(std::uint64_t footprint,
                                        double write_frac = 0.3);
    static MemPatternSpec hotCold(std::uint64_t hot,
                                  std::uint64_t footprint,
                                  double hot_prob,
                                  double write_frac = 0.3);
    /** @} */
};

/**
 * Instantiate the generator for @p spec.
 *
 * @param base lowest address of the region the stream walks
 * @param rng independent stream for stochastic patterns
 */
std::unique_ptr<hw::AddressStream>
makeAddressStream(const MemPatternSpec &spec, Addr base, Random rng);

} // namespace klebsim::workload

#endif // KLEBSIM_WORKLOAD_ADDRESS_STREAMS_HH
