/**
 * @file
 * The K-LEB user-space controller process (paper Fig. 1).
 *
 * Responsibilities: configure the module through ioctl, issue the
 * start command, then periodically wake up, drain the kernel sample
 * buffer with read() syscalls, and log the samples (the paper keeps
 * file I/O in user space because kernel code should not write
 * files).  The module wakes it early when the buffer-full safety
 * mechanism engages and when monitoring finishes.
 */

#ifndef KLEBSIM_KLEB_KLEB_CONTROLLER_HH
#define KLEBSIM_KLEB_KLEB_CONTROLLER_HH

#include <functional>
#include <string>
#include <vector>

#include "base/types.hh"
#include "kernel/service.hh"
#include "kleb_config.hh"
#include "kleb_module.hh"
#include "supervisor.hh"

namespace klebsim::kleb
{

class DurableLog;
class RateGovernor;

/**
 * Scripted behaviour of the controller process.
 */
class ControllerBehavior : public kernel::ServiceBehavior
{
  public:
    /**
     * fresh: CONFIG + START a new monitoring run.  reattach: adopt
     * an in-flight run through the ATTACH ioctl (supervisor restart
     * path), falling back to the fresh path if the predecessor died
     * before CONFIG landed.
     */
    enum class Mode
    {
        fresh,
        reattach,
    };
    /** Calibrated costs of the controller's user-space work. */
    struct Tuning
    {
        /** Interval between drain wake-ups. */
        Tick drainInterval = msToTicks(10);

        /** Arg parsing / device open before CONFIG. */
        Tick setupCost = usToTicks(420);

        /** Fixed log-write cost per drain (fopen/fflush/VFS). */
        Tick logBase = usToTicks(57);

        /** Marginal formatting cost per sample logged. */
        Tick logPerSample = usToTicks(1.5);

        /** Controller working-set footprint. */
        std::uint64_t logFootprint = 8 * 1024;

        /** Max samples pulled per read(). */
        std::size_t batchMax = 8192;

        /**
         * First retry backoff after a transient (-EAGAIN) chardev
         * failure; doubles per consecutive failure.
         */
        Tick retryBackoff = usToTicks(50);

        /** Consecutive transient failures tolerated per syscall. */
        int maxRetries = 8;

        /**
         * Fault-injection hook: extra stall added to each drain
         * sleep (a slow/blocked reader).  Null costs nothing.
         */
        std::function<Tick()> drainStallHook;

        /**
         * Fault-injection hook, called after drainStallHook: a
         * nonzero result wedges the controller for that long on top
         * of the drain sleep.  A wedged controller no longer waits
         * on the device, so the module's pause and finish wakes do
         * not reach it; only a supervisor's heartbeat timeout does.
         * Null costs nothing.
         */
        std::function<Tick()> hangHook;

        /** Device re-open + ATTACH prep (reattach mode setup). */
        Tick attachCost = usToTicks(180);

        /**
         * Fault-injection hook: force the next SET_PERIOD ioctl to
         * fail EAGAIN before it reaches the module (plan key
         * module.set_period).  Null costs nothing.
         */
        std::function<bool()> setPeriodFaultHook;

        /**
         * Fault-injection hook: observes each commitment to a
         * period reprogram, before the SET_PERIOD syscall issues
         * (plan key reprogram.crash schedules a kill through it).
         * Null costs nothing.
         */
        std::function<void(kernel::Kernel &, kernel::Process &)>
            reprogramHook;
    };

    /**
     * @param module the loaded K-LEB module
     * @param dev_path the module's device path
     * @param cfg configuration to send
     * @param on_started called right after the START ioctl succeeds
     *        (the harness uses it to launch the monitored process)
     */
    ControllerBehavior(KLebModule *module, std::string dev_path,
                       KLebConfig cfg,
                       std::function<void()> on_started);
    ControllerBehavior(KLebModule *module, std::string dev_path,
                       KLebConfig cfg,
                       std::function<void()> on_started,
                       Tuning tuning);
    ControllerBehavior(KLebModule *module, std::string dev_path,
                       KLebConfig cfg,
                       std::function<void()> on_started,
                       Tuning tuning, Mode mode);

    kernel::ServiceOp nextOp(kernel::Kernel &kernel,
                             kernel::Process &self) override;

    /**
     * Mirror every drained sample into @p log (crash durability);
     * null (the default) keeps the PR 3 behaviour byte-identical.
     */
    void setDurableLog(DurableLog *log) { durableLog_ = log; }

    /** Stamp @p heartbeat on every successful chardev syscall. */
    void setHeartbeat(Heartbeat *heartbeat)
    { heartbeat_ = heartbeat; }

    /**
     * Called once from the abort path; the bool reports whether
     * monitoring had been armed before the abort (the supervisor
     * uses it to count failed re-attaches).
     */
    void setOnAborted(std::function<void(bool armed)> fn)
    { onAborted_ = std::move(fn); }

    /**
     * Drive adaptive sampling: the governor is fed every drain
     * cycle and its proposals are issued as SET_PERIOD ioctls
     * (journaled as rateChange frames when a durable log is
     * attached).  The governor outlives controller incarnations —
     * the session owns it; a re-attaching incarnation re-syncs it
     * to the module's actual period.  Null (the default) keeps the
     * fixed-rate behaviour byte-identical.
     */
    void setGovernor(RateGovernor *governor)
    { governor_ = governor; }

    /** Samples logged so far (the "log file" contents). */
    const std::vector<Sample> &log() const { return log_; }

    /** True once the controller has exited its main loop. */
    bool finished() const { return finished_; }

    /**
     * True if the session was cut short (module unloaded, retries
     * exhausted, or a non-transient chardev error); the log holds
     * whatever was flushed before the failure.
     */
    bool aborted() const { return aborted_; }

    /** Number of drain cycles performed. */
    std::uint64_t drains() const { return drains_; }

    /** Transient-failure retries performed across all syscalls. */
    std::uint64_t retries() const { return retries_; }

    /** The period this incarnation believes the module runs at. */
    Tick currentPeriod() const { return currentPeriod_; }

    /** SET_PERIOD ioctls this incarnation landed. */
    std::uint64_t periodChanges() const { return periodChanges_; }

  private:
    enum class State
    {
        setup,
        configure,
        start,
        attach,
        sleep,
        drain,
        logWrite,
        setPeriod,
        finalStatus,
        abortFlush,
        done,
    };

    /** @{ Chardev access with unload/fault awareness. */
    long doIoctl(kernel::Kernel &kernel, kernel::Process &self,
                 std::uint32_t cmd, void *arg);
    long doRead(kernel::Kernel &kernel, kernel::Process &self,
                void *buf, std::size_t len);
    /** @} */

    /**
     * Common syscall-outcome handling: returns true when @p rc is
     * success; otherwise arranges a backed-off retry of
     * @p retry_state (transient failure with attempts left) or an
     * abort (unload / retries exhausted), and returns false.
     * Unexpected error codes are fatal, as before.
     */
    bool handleRc(long rc, State retry_state, const char *what);

    /** Heartbeat + durable-log bookkeeping on a syscall success. */
    void onSyscallOk(kernel::Kernel &kernel);

    /** Arm bookkeeping shared by START and ATTACH success. */
    void armed(kernel::Kernel &kernel);

    KLebModule *module_;
    std::string devPath_;
    KLebConfig cfg_;
    std::function<void()> onStarted_;
    Tuning tuning_;
    Mode mode_ = Mode::fresh;
    DurableLog *durableLog_ = nullptr;
    Heartbeat *heartbeat_ = nullptr;
    RateGovernor *governor_ = nullptr;
    std::function<void(bool)> onAborted_;

    State state_ = State::setup;
    std::vector<Sample> log_;
    std::size_t lastDrained_ = 0;
    bool moduleFinished_ = false;
    bool finished_ = false;
    bool aborted_ = false;
    bool started_ = false;
    std::uint64_t drains_ = 0;

    /** Retry machinery for transient chardev failures. */
    int attempts_ = 0;
    std::uint64_t retries_ = 0;
    Tick retrySleep_ = 0;
    bool retryPending_ = false;

    /** Adaptive sampling (only live when a governor is set). */
    Tick currentPeriod_ = 0;
    Tick pendingPeriod_ = 0; //!< nonzero = SET_PERIOD in flight
    std::uint64_t periodChanges_ = 0;
};

} // namespace klebsim::kleb

#endif // KLEBSIM_KLEB_KLEB_CONTROLLER_HH
