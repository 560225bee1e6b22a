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
 *
 * The random and hot/cold streams fill a batch with one of two
 * bodies that give the same addresses and leave every generator in
 * the same state: a scalar body that draws access by access, and, on
 * hosts with AVX-512F and AVX-512DQ, a lane body that draws eight
 * accesses at a time (Random::Lanes) and jumps each generator past
 * the draws it used (Random::advance).  A sequential stream is a
 * counter and draws nothing.  See DESIGN.md §12.
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

    /**
     * randomUniform and hotCold: fraction of references that are
     * writes.  These streams draw a write flag per reference with
     * this probability and drop it: the cache model allocates on
     * stores as on loads, and the draws keep every recorded address
     * sequence.  A sequential stream draws nothing.
     */
    double writeFraction = 0.3;

    /** @{ Convenience factories. */
    static MemPatternSpec none_();
    static MemPatternSpec sequential(std::uint64_t footprint);
    static MemPatternSpec randomUniform(std::uint64_t footprint,
                                        double write_frac = 0.3);
    static MemPatternSpec hotCold(std::uint64_t hot,
                                  std::uint64_t footprint,
                                  double hot_prob,
                                  double write_frac = 0.3);
    /** @} */
};

/**
 * The generators makeAddressStream() builds.  fillBatch() takes the
 * lane body, fillLanes(), on hosts where hostHasAvx512dq() holds and
 * the scalar body, fillScalar(), everywhere else.  A stream whose
 * addresses take no draws has one body: its fillLanes() is
 * fillScalar().
 */
class PatternStream : public hw::AddressStream
{
  public:
    void fillBatch(Addr *addrs, std::size_t n) final;

    /**
     * @{ The two bodies of fillBatch(), public so that tests can run
     * both on one host.  fillLanes() needs hostHasAvx512dq().
     */
    virtual void fillScalar(Addr *addrs, std::size_t n) = 0;
#if defined(__x86_64__)
    virtual void fillLanes(Addr *addrs, std::size_t n)
    {
        fillScalar(addrs, n);
    }
#endif
    /** @} */
};

/**
 * Instantiate the generator for @p spec (null for Kind::none).
 *
 * @param base lowest address of the region the stream walks
 * @param rng independent stream for stochastic patterns
 */
std::unique_ptr<PatternStream>
makeAddressStream(const MemPatternSpec &spec, Addr base, Random rng);

} // namespace klebsim::workload

#endif // KLEBSIM_WORKLOAD_ADDRESS_STREAMS_HH
