/**
 * @file
 * The K-LEB public API: one object that loads the module, spawns
 * the controller process, arms monitoring on a target process, and
 * hands results back as time series.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *   kernel::System sys;
 *   auto workload = workload::makeMatMulLoop({500}, 0x10000000, rng);
 *   auto *proc = sys.kernel().createWorkload("mm", workload.get());
 *   kleb::Session session(sys, options);
 *   session.monitor(proc);     // starts proc under monitoring
 *   sys.run();
 *   auto series = session.deltaSeries();
 */

#ifndef KLEBSIM_KLEB_SESSION_HH
#define KLEBSIM_KLEB_SESSION_HH

#include <memory>
#include <string>
#include <vector>

#include "durable_log.hh"
#include "kernel/system.hh"
#include "kleb_config.hh"
#include "kleb_controller.hh"
#include "kleb_module.hh"
#include "rate_governor.hh"
#include "stats/summary.hh"
#include "stats/time_series.hh"
#include "supervisor.hh"

namespace klebsim::kleb
{

/**
 * One monitoring session.
 */
class Session
{
  public:
    struct Options
    {
        /** Events recorded per sample (<= 3 fixed + 4 programmable). */
        std::vector<hw::HwEvent> events = {
            hw::HwEvent::instRetired, hw::HwEvent::llcReference,
            hw::HwEvent::llcMiss, hw::HwEvent::branchRetired};

        /** Sampling period (paper recommends >= 100 us). */
        Tick period = usToTicks(100);

        std::size_t bufferCapacity = 16384;
        bool traceChildren = true;
        bool countKernel = false;

        /** Controller core (-1 = same core as the target). */
        CoreId controllerCore = invalidCore;

        /**
         * Supervisor core pin (-1 = auto-place on the core after
         * the controller's).  Pinning the supervisor to its ward's
         * own core is refused outright: a hung controller wedges
         * inside a syscall that monopolizes its core, and a
         * same-core watchdog would be starved of the very poll
         * that detects the hang.
         */
        CoreId supervisorCore = invalidCore;

        KLebModule::Tuning moduleTuning{};
        ControllerBehavior::Tuning controllerTuning{};

        /** Disable timer jitter (unit tests). */
        bool idealTimer = false;

        /**
         * Extra insmod attempts after a failed module load (the
         * kernel's module-load fault hook can veto loads).  With
         * all attempts exhausted the session degrades: monitor()
         * still runs the target, just unmonitored.
         */
        int loadRetries = 2;

        /**
         * Journal every drained sample into a crash-durable,
         * checksummed log (src/kleb/durable_log.hh) that
         * LogRecovery can replay after a crash.  Off by default:
         * fault-free runs stay byte-identical to earlier builds.
         */
        bool durableLog = false;

        /**
         * Spawn a supervisor service that watches the controller's
         * heartbeat and restarts it (bounded, backed off) on death
         * or hang, re-attaching to the still-loaded module.
         * Implies durableLog.  Off by default for the same
         * byte-identical reason.
         */
        bool supervise = false;

        SupervisorBehavior::Tuning supervisorTuning{};

        /**
         * Adaptive sampling: create a RateGovernor that retunes
         * the HRTimer period per drain cycle to hit the configured
         * overhead budget (SET_PERIOD ioctls, journaled as
         * rateChange frames when a durable log is on).  Off by
         * default: fixed-rate runs stay byte-identical.
         */
        bool adaptive = false;

        /**
         * Governor tuning (used when adaptive is set).  Leaving
         * costPerSample / costPerDrain at 0 derives them from the
         * calibrated module/controller costs.
         */
        RateGovernor::Config governor{};
    };

    Session(kernel::System &sys, Options options);

    /**
     * Unloads the module if this session still owns a loaded one —
     * exactly once, whatever path led here (clean finish, degrade,
     * supervisor giving up with the controller dead): the unload
     * hook nulls module_ so a module already removed (by a test or
     * a crash of the whole machine) is never double-rmmod'ed.
     */
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Arm monitoring on @p target (which must be in `created`
     * state when @p start_target is true).  Loads the module,
     * starts the controller; once the controller's START ioctl
     * lands, @p target is started so that its very first
     * instruction is monitored.
     *
     * If the module failed to load (see Options::loadRetries) the
     * session degrades gracefully: @p target is started
     * unmonitored and no controller is spawned.
     */
    void monitor(kernel::Process *target, bool start_target = true);

    /** True once the controller has drained everything and exited. */
    bool finished() const;

    /** True when every insmod attempt was vetoed. */
    bool loadFailed() const { return loadFailed_; }

    /** insmod attempts made by the constructor (>= 1). */
    int loadAttempts() const { return loadAttempts_; }

    /**
     * True when the controller gave up mid-session (module
     * unloaded under it, or chardev retries exhausted); the
     * partial log remains available through samples().
     */
    bool aborted() const
    { return behavior_ && behavior_->aborted(); }

    /** Transient chardev failures retried, over all incarnations. */
    std::uint64_t retries() const;

    /**
     * All samples logged, across every controller incarnation (a
     * supervised session may have several after restarts).
     */
    const std::vector<Sample> &samples() const;

    /** Cumulative counter time series (one channel per event). */
    stats::TimeSeries series() const;

    /** Per-interval delta series. */
    stats::TimeSeries deltaSeries() const;

    /**
     * Final (exact) counter totals as an EventVector; taken from
     * the module's end-of-monitoring snapshot.
     */
    hw::EventVector finalTotals() const;

    /**
     * Module status snapshot.  Safe at any point of the lifecycle:
     * after the module is unloaded (or was never loaded) this
     * returns the snapshot taken at unload time rather than
     * touching freed module state.
     */
    KLebStatus status() const;

    /**
     * Ring-buffer loss accounting in the shared stats::LossCounts
     * form (same shape the histogram reports for its out-of-range
     * bins); valid whether or not the module is still loaded.
     */
    stats::LossCounts
    losses() const
    {
        KLebStatus st = status();
        stats::LossCounts lc;
        lc.accepted = st.samplesRecorded;
        lc.dropped = st.samplesDropped;
        // Windows forfeited to PMU contention are gaps in the
        // series, not drops: the ring never saw them.
        lc.gaps = st.lostToContention;
        return lc;
    }

    /** Module (null if load failed or it was unloaded). */
    KLebModule *module() { return module_; }
    kernel::Process *controllerProcess() { return controller_; }
    kernel::Process *target() { return target_; }
    const std::string &devPath() const { return devPath_; }

    /** Durable sample journal (null unless enabled). */
    const DurableLog *durableLog() const { return durableLog_.get(); }

    /**
     * The adaptive-sampling governor (null unless Options::adaptive
     * was set).  Session-lived: it survives controller restarts so
     * the overhead estimate and change statistics span the whole
     * run.
     */
    const RateGovernor *governor() const { return governor_.get(); }

    /** Supervision outcome (all-zero when unsupervised). */
    SupervisorStats supervisorStats() const
    {
        return supervisorBehavior_ ? supervisorBehavior_->stats()
                                   : SupervisorStats{};
    }

    /** Controller incarnations spawned (1 = never restarted). */
    std::size_t incarnations() const
    { return retired_.size() + (behavior_ ? 1 : 0); }

  private:
    /**
     * Supervisor restart path: retire the dead incarnation and
     * spawn a replacement in reattach mode.  Returns the new
     * controller process, or null when the module is gone.
     */
    kernel::Process *restartController();

    /** Wire heartbeat/durable-log/abort plumbing into @p b. */
    void plumbBehavior(ControllerBehavior &b);

    kernel::System &sys_;
    Options options_;
    std::string devPath_;
    KLebModule *module_ = nullptr;
    std::unique_ptr<ControllerBehavior> behavior_;
    kernel::Process *controller_ = nullptr;
    kernel::Process *target_ = nullptr;

    /** Dead incarnations, kept alive for their logs/counters. */
    std::vector<std::unique_ptr<ControllerBehavior>> retired_;
    mutable std::vector<Sample> mergedSamples_;

    KLebConfig cfg_{};
    Heartbeat heartbeat_;
    std::unique_ptr<DurableLog> durableLog_;
    std::unique_ptr<RateGovernor> governor_;
    std::unique_ptr<SupervisorBehavior> supervisorBehavior_;
    kernel::Process *supervisor_ = nullptr;

    bool loadFailed_ = false;
    int loadAttempts_ = 0;

    /** Watches for our module being unloaded out from under us. */
    int moduleHookId_ = -1;

    /** Hotplug notifier feeding the governor (adaptive only). */
    int cpuHookId_ = -1;

    /** Status captured the moment the module went away. */
    KLebStatus lastStatus_;
};

} // namespace klebsim::kleb

#endif // KLEBSIM_KLEB_SESSION_HH
