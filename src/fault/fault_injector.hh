/**
 * @file
 * Seed-driven fault injector.
 *
 * Wires a FaultPlan into a simulated machine through the substrate's
 * fault hooks: narrowed PMU counter widths, timer-tick misses and
 * jitter spikes, transient chardev (ioctl/read) failures, stalled
 * user-space readers, module load failures, and a monitored-process
 * crash.  Each hook point draws from its own forked PCG32 stream,
 * so enabling one fault type never perturbs another's schedule, and
 * (seed, plan) fully determines every injection — faulted runs
 * replay bit-for-bit.
 *
 * Lifetime: the injector must outlive the System it attaches to (or
 * at least every event the System still runs); declare it alongside
 * the System and attach() before running.
 */

#ifndef KLEBSIM_FAULT_FAULT_INJECTOR_HH
#define KLEBSIM_FAULT_FAULT_INJECTOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "fault_plan.hh"
#include "hw/timer_device.hh"

namespace klebsim::kernel
{
class Kernel;
class Process;
class System;
} // namespace klebsim::kernel

namespace klebsim::fault
{

/**
 * Drives one FaultPlan against one machine.
 */
class FaultInjector
{
  public:
    /**
     * @param plan the faults to inject
     * @param machine_seed the target machine's master seed; mixed
     *        with plan.seed so distinct machines (bench trials)
     *        see distinct-but-deterministic fault schedules
     */
    FaultInjector(FaultPlan plan, std::uint64_t machine_seed);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Install every enabled fault into @p sys: PMU widths are set
     * on all cores, and the kernel's chardev / timer / module-load
     * hooks are bound.  A plan with no active faults installs
     * nothing at all (zero-cost when off).
     */
    void attach(kernel::System &sys);

    /**
     * Reader-stall hook for a drain loop (extra sleep per drain
     * cycle); null when the plan does not stall readers.  Plug into
     * ControllerBehavior::Tuning::drainStallHook.
     */
    std::function<Tick()> readerStallHook();

    /**
     * Schedule the monitored-process crash (plan key target.crash)
     * for @p target; no-op when the plan does not crash.  The kill
     * fires at the planned tick only if the target is then alive.
     */
    void scheduleTargetCrash(kernel::System &sys,
                             kernel::Process *target);

    /**
     * Schedule the controller crash (plan key controller.crash) for
     * @p controller; no-op when the plan does not crash it.  The
     * kill fires at the planned tick only if the controller is then
     * alive — a supervisor (if any) sees it as a crash and restarts.
     */
    void scheduleControllerCrash(kernel::System &sys,
                                 kernel::Process *controller);

    /**
     * Schedule the CPU hotplug cycle (plan keys cpu.offline /
     * cpu.online, aux cpu.offline.core): hot-unplug the named core
     * at the offline tick — the scheduler evacuates it and per-CPU
     * monitors quiesce — and bring it back at the online tick.
     * No-op when neither key is set or the core id is out of range;
     * the kernel itself refuses to offline the last online core.
     */
    void scheduleCpuHotplug(kernel::System &sys);

    /**
     * Schedule recurring forced migrations (plan key task.migrate):
     * every interval, @p target hops to the next online core,
     * producing the migration-heavy schedules the per-CPU
     * attribution ledger must balance.  Stops when the target
     * exits; no-op when the plan does not migrate.
     */
    void scheduleTaskMigration(kernel::System &sys,
                               kernel::Process *target);

    /**
     * Hang hook implementing controller.hang: starting at the
     * planned tick, the controller's next drain sleep wedges it for
     * ~30 simulated seconds — a wedged reader only a supervisor's
     * heartbeat timeout can detect.  Fires once per run.  Null when
     * the plan does not hang.  Plug into
     * ControllerBehavior::Tuning::hangHook.
     */
    std::function<Tick()> controllerHangHook(kernel::System &sys);

    /**
     * SET_PERIOD failure hook (plan key module.set_period): true
     * when the controller's next SET_PERIOD ioctl should fail
     * EAGAIN before reaching the module.  Plug into
     * ControllerBehavior::Tuning::setPeriodFaultHook.  Null when
     * the plan does not fault reprograms.
     */
    std::function<bool()> setPeriodFailHook();

    /**
     * Reprogram-crash hook (plan key reprogram.crash): called each
     * time the controller commits to issuing a SET_PERIOD; on the
     * Nth (1-based, counted across incarnations) it schedules a
     * kill of the calling controller one tick later — landing in
     * the window where the period change may or may not have
     * reached the module, the seam recovery must balance either
     * way.  Null when the plan does not crash reprograms.
     */
    std::function<void(kernel::Kernel &, kernel::Process &)>
    reprogramCrashHook(kernel::System &sys);

    /**
     * Corrupt a captured durable-log image in place: truncate the
     * tail by plan key log.torn_tail bytes (never into the first
     * @p protect_prefix bytes — the header a real filesystem would
     * have long since flushed), then flip log.bitflip random bits
     * in the body.  No-op when neither key is set.
     */
    void corruptLog(std::vector<std::uint8_t> &bytes,
                    std::size_t protect_prefix);

    const FaultPlan &plan() const { return plan_; }

    /** Number of injections performed at @p point so far. */
    std::uint64_t injectedCount(FaultPoint point) const
    { return injected_[static_cast<int>(point)]; }

    /** Total injections across all fault points. */
    std::uint64_t totalInjected() const;

    /** "key=count" pairs for every point that fired (reporting). */
    std::string injectionSummary() const;

  private:
    /** Per-point forked stream (independent draw sequences). */
    Random &stream(FaultPoint point)
    { return streams_[static_cast<int>(point)]; }

    hw::TimerDevice::FaultHook makeTimerHook(const std::string &name,
                                             CoreId core);

    void inject(FaultPoint point)
    { ++injected_[static_cast<int>(point)]; }

    /** One forced-migration hop; reschedules itself. */
    void migrateTick(kernel::System &sys, kernel::Process *target);

    FaultPlan plan_;
    std::array<Random, numFaultPoints> streams_;
    std::array<std::uint64_t, numFaultPoints> injected_{};
    int loadsFailed_ = 0;
    bool hangFired_ = false;
    int reprogramsSeen_ = 0;
};

} // namespace klebsim::fault

#endif // KLEBSIM_FAULT_FAULT_INJECTOR_HH
