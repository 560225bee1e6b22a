/**
 * @file
 * The CPU core model: executes WorkChunks against the memory
 * hierarchy, costs them with a simple IPC/stall model, and
 * attributes the resulting hardware events to the per-core PMU over
 * simulated time.
 *
 * Execution protocol (driven by the kernel scheduler):
 *  1. attachContext(ctx) at context-switch-in.
 *  2. prepare(horizon) — execute chunks ahead until at least
 *     `horizon` ticks of work (or workload completion) are queued;
 *     returns how much of the horizon is runnable and whether the
 *     workload completes inside it.
 *  3. As simulated time passes, syncTo(now) attributes prepared work
 *     (pro-rata within a chunk) to the PMU, so a counter read at any
 *     tick is exact.
 *  4. charge(...) accounts kernel/service overhead occupying core
 *     time: it consumes wall time without consuming prepared work,
 *     which is exactly how monitoring overhead slows the workload.
 *  5. detachContext() at context-switch-out (after a syncTo).
 */

#ifndef KLEBSIM_HW_CPU_CORE_HH
#define KLEBSIM_HW_CPU_CORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "exec_context.hh"
#include "exec_types.hh"
#include "machine_config.hh"
#include "mem_hierarchy.hh"
#include "msr.hh"
#include "pmu.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"

namespace klebsim::hw
{

/** Result of CpuCore::prepare(). */
struct PrepareResult
{
    /** Runnable time inside the requested horizon. */
    Tick available = 0;

    /** True if the workload retires its last chunk within that. */
    bool completes = false;
};

/** Parameters describing a generic "overhead" charge. */
struct ChargeSpec
{
    Tick duration = 0;
    PrivLevel priv = PrivLevel::kernel;

    /** Bytes of (cache-polluting) data the work touches. */
    std::uint64_t footprintBytes = 0;

    /** Base address of that footprint (0 = core's kernel scratch). */
    Addr footprintBase = 0;

    /** Instructions retired (0 = derive from duration via kernelIpc). */
    std::uint64_t instructions = 0;
};

/**
 * One core: PMU + MSR file + private cache levels + the chunk
 * execution engine.
 */
class CpuCore
{
  public:
    CpuCore(CoreId id, const MachineConfig &cfg, sim::EventQueue &eq,
            Cache *shared_llc);

    CoreId id() const { return id_; }
    Pmu &pmu() { return pmu_; }
    MsrFile &msrs() { return msrs_; }
    MemHierarchy &mem() { return mem_; }
    const sim::ClockDomain &clock() const { return clock_; }
    const MachineConfig &config() const { return cfg_; }

    /** TSC as software would read it now. */
    std::uint64_t rdtsc() const;

    /** @{ Context-switch interface. */
    void attachContext(ExecContext *ctx);
    void detachContext();
    ExecContext *currentContext() { return ctx_; }
    /** @} */

    /**
     * Execute chunks ahead so that at least @p horizon ticks of work
     * (measured from the attribution cursor) are prepared.
     */
    PrepareResult prepare(Tick horizon);

    /**
     * Attribute prepared work up to absolute tick @p now.  Must be
     * called before any PMU read or context switch at @p now.
     */
    void syncTo(Tick now);

    /**
     * Account overhead work occupying core time starting at the
     * attribution cursor.  Feeds kernel-mix events to the PMU and
     * pollutes the caches with the charge's footprint.  The caller
     * (kernel) is responsible for extending any pending slice-end
     * deadline by the same duration.
     */
    void charge(const ChargeSpec &spec);

    /**
     * Record bookkeeping events that have no duration (context
     * switch tally, interrupt tally).
     */
    void countEvent(HwEvent ev, std::uint64_t n, PrivLevel priv);

    /** Absolute tick execution has been attributed up to. */
    Tick attributedUpTo() const { return attributedUpTo_; }

    /** Busy time accumulated (for utilization reporting). */
    Tick busyTime() const { return busyTime_; }

  private:
    /**
     * Run one chunk into a Prepared record: fill the sample lane
     * with up to memSampleCap_ of its accesses, walk them through the
     * cache model (MemHierarchy::walk), extrapolate the rest, and
     * cost the chunk in cycles.
     */
    ExecContext::Prepared executeChunk(const WorkChunk &chunk);

    /** Credit pro-rata chunk progress to the PMU and totals. */
    void creditFront(ExecContext::Prepared &front, Tick g);

    CoreId id_;
    const MachineConfig &cfg_;
    sim::EventQueue &eq_;
    sim::ClockDomain clock_;
    sim::ClockDomain refClock_;
    Pmu pmu_;
    MsrFile msrs_;
    MemHierarchy mem_;
    ExecContext *ctx_;
    Tick attributedUpTo_;
    Tick busyTime_;
    Addr kernelScratchCursor_;

    /**
     * Cap on real cache accesses per chunk and per charge, latched
     * at construction like the clock frequencies: the sample lanes
     * are sized by it, so raising the config's cap on a live core
     * must not let a chunk write past them.
     */
    std::uint32_t memSampleCap_;

    /**
     * The sample lane, sized memSampleCap_ at construction: one
     * fillBatch call per chunk fills it with the sampled addresses
     * (eight at a time on hosts with AVX-512F and AVX-512DQ), and the
     * cache-model walk reads it as a plain array instead of making
     * one virtual call per access.  charge() puts its pollution
     * walk's line addresses here too.  The walk consumes the lane
     * (the vector walk moves each level's misses to its front), so
     * every chunk and every charge fills it afresh.
     */
    std::vector<Addr> laneAddr_;
};

} // namespace klebsim::hw

#endif // KLEBSIM_HW_CPU_CORE_HH
