/**
 * @file
 * Three-level memory hierarchy: per-core L1D and L2 in front of a
 * shared LLC, with DRAM behind it.
 *
 * Every access returns its latency and the per-level hit/miss
 * breakdown so the CPU core can both account stall cycles and feed
 * the PMU the corresponding microarchitectural events.
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

/** Outcome of a single memory access. */
struct AccessOutcome
{
    MemLevel level = MemLevel::l1;
    std::uint32_t cycles = 0;
    bool l1Miss = false;
    bool l2Miss = false;
    bool llcRef = false;  //!< the access reached the LLC
    bool llcMiss = false;
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

    /** Issue one load/store at @p addr. */
    AccessOutcome
    access(Addr addr, bool write)
    {
        AccessOutcome out;
        const MemLatency &lat = cfg_.latency;

        if (l1_.access(addr, write)) {
            out.level = MemLevel::l1;
            out.cycles = lat.l1;
            return out;
        }
        out.l1Miss = true;

        if (l2_.access(addr, write)) {
            out.level = MemLevel::l2;
            out.cycles = lat.l2;
            return out;
        }
        out.l2Miss = true;
        out.llcRef = true;

        if (llc_->access(addr, write)) {
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
    accessNonTemporal(Addr addr, bool write)
    {
        AccessOutcome out;
        const MemLatency &lat = cfg_.latency;

        if (l1_.access(addr, write)) {
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
        out.llcRef = true;
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
