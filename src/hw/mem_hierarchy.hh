/**
 * @file
 * Three-level memory hierarchy: per-core L1D and L2 in front of a
 * shared LLC, with DRAM behind it.
 *
 * Every access returns its latency and the per-level hit/miss
 * breakdown so the CPU core can both account stall cycles and feed
 * the PMU the corresponding microarchitectural events.  The CPU
 * core's sampled accesses go through walk() and walkNonTemporal(),
 * which return only the per-level miss counts of a whole batch.
 */

#ifndef KLEBSIM_HW_MEM_HIERARCHY_HH
#define KLEBSIM_HW_MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>

#include "base/types.hh"
#include "cache.hh"
#include "machine_config.hh"
#include "perf_event.hh"

namespace klebsim::hw
{

/** Where an access was satisfied. */
enum class MemLevel
{
    l1,
    l2,
    llc,
    dram,
};

/**
 * Outcome of a single memory access.  An access reaches the LLC
 * exactly when it misses L2, so l2Miss is also the LLC reference.
 */
struct AccessOutcome
{
    MemLevel level = MemLevel::l1;
    std::uint32_t cycles = 0;
    bool l1Miss = false;
    bool l2Miss = false;
    bool llcMiss = false;
};

/** Per-level miss counts of one walk over sampled addresses. */
struct WalkCounts
{
    std::uint64_t l1Miss = 0;
    std::uint64_t l2Miss = 0; //!< also the walk's LLC references
    std::uint64_t llcMiss = 0;
};

/**
 * The view of memory from one core: private L1D and L2 plus a
 * pointer to the machine's shared LLC.
 */
class MemHierarchy
{
  public:
    /**
     * @param cfg machine geometry and latencies
     * @param shared_llc the machine-wide L3 (not owned)
     */
    MemHierarchy(const MachineConfig &cfg, Cache *shared_llc);

    /** Issue one load or store at @p addr. */
    AccessOutcome
    access(Addr addr)
    {
        AccessOutcome out;
        const MemLatency &lat = cfg_.latency;

        if (l1_.access(addr)) {
            out.level = MemLevel::l1;
            out.cycles = lat.l1;
            return out;
        }
        out.l1Miss = true;

        if (l2_.access(addr)) {
            out.level = MemLevel::l2;
            out.cycles = lat.l2;
            return out;
        }
        out.l2Miss = true;

        if (llc_->access(addr)) {
            out.level = MemLevel::llc;
            out.cycles = lat.llc;
            return out;
        }
        out.llcMiss = true;
        out.level = MemLevel::dram;
        out.cycles = lat.dram;
        return out;
    }

    /**
     * Issue an access that allocates in L1 only (non-temporal
     * fill).  Used for kernel/monitoring-tool work (see DESIGN.md):
     * tool footprints disturb the workload's L1, while their deeper
     * cache effects are folded into calibrated direct costs —
     * inserting them into L2/LLC would be amplified out of
     * proportion by the chunk engine's access sampling.
     */
    AccessOutcome
    accessNonTemporal(Addr addr)
    {
        AccessOutcome out;
        const MemLatency &lat = cfg_.latency;

        if (l1_.access(addr)) {
            out.level = MemLevel::l1;
            out.cycles = lat.l1;
            return out;
        }
        out.l1Miss = true;

        // Probe deeper levels for latency without allocating there.
        if (l2_.contains(addr)) {
            out.level = MemLevel::l2;
            out.cycles = lat.l2;
            return out;
        }
        out.l2Miss = true;
        if (llc_->contains(addr)) {
            out.level = MemLevel::llc;
            out.cycles = lat.llc;
            return out;
        }
        out.llcMiss = true;
        out.level = MemLevel::dram;
        out.cycles = lat.dram;
        return out;
    }

    /**
     * access() each of the @p n addresses of @p lane in order and
     * count the misses at each level.  The vector body runs when
     * vectorWalk() holds, the scalar body otherwise; both leave the
     * same counts, stats and tags.  The walk consumes its lane: the
     * vector body reorders it in place, so its contents are
     * unspecified on return.
     */
    WalkCounts walk(Addr *lane, std::size_t n);

    /** walk() through accessNonTemporal(). */
    WalkCounts walkNonTemporal(Addr *lane, std::size_t n);

    /**
     * True when walk() and walkNonTemporal() take their vector
     * bodies: the host has AVX-512F and no level has more than
     * Cache::vectorMaxWays ways.
     */
    bool vectorWalk() const;

    /**
     * @{ The two bodies of walk() and walkNonTemporal(), public so
     * that tests can run both on one host.  The scalar ones call
     * access() and accessNonTemporal() address by address.  The
     * vector ones need vectorWalk() and go level at a time: one
     * batch lookup per level over the lane, each leaving its misses,
     * in order, at the front of the lane for the next.
     */
    WalkCounts walkScalar(const Addr *addrs, std::size_t n);
    WalkCounts walkNonTemporalScalar(const Addr *addrs, std::size_t n);
#if defined(__x86_64__)
    [[gnu::target("avx512f")]] WalkCounts
    walkAvx512(Addr *lane, std::size_t n);
    [[gnu::target("avx512f")]] WalkCounts
    walkNonTemporalAvx512(Addr *lane, std::size_t n);
#endif
    /** @} */

    /**
     * CLFLUSH @p addr: evict the line from every level.
     * @return outcome carrying the flush latency; level reports the
     *         nearest level the line was found in (L1 before L2
     *         before LLC; dram if absent).
     */
    AccessOutcome clflush(Addr addr);

    /** Residency probe (no state change): nearest level holding addr. */
    MemLevel probe(Addr addr) const;

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }
    Cache &llc() { return *llc_; }
    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return *llc_; }

    /** Translate one outcome into PMU event increments. */
    static EventVector outcomeEvents(const AccessOutcome &out,
                                     bool write);

  private:
    const MachineConfig &cfg_;
    Cache l1_;
    Cache l2_;
    Cache *llc_;
};

} // namespace klebsim::hw

#endif // KLEBSIM_HW_MEM_HIERARCHY_HH
