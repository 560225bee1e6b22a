#include "kleb_controller.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "durable_log.hh"
#include "kernel/kernel.hh"
#include "kernel/module.hh"
#include "rate_governor.hh"

namespace klebsim::kleb
{

ControllerBehavior::ControllerBehavior(
    KLebModule *module, std::string dev_path, KLebConfig cfg,
    std::function<void()> on_started)
    : ControllerBehavior(module, std::move(dev_path),
                         std::move(cfg), std::move(on_started),
                         Tuning{})
{
}

ControllerBehavior::ControllerBehavior(
    KLebModule *module, std::string dev_path, KLebConfig cfg,
    std::function<void()> on_started, Tuning tuning)
    : ControllerBehavior(module, std::move(dev_path),
                         std::move(cfg), std::move(on_started),
                         tuning, Mode::fresh)
{
}

ControllerBehavior::ControllerBehavior(
    KLebModule *module, std::string dev_path, KLebConfig cfg,
    std::function<void()> on_started, Tuning tuning, Mode mode)
    : module_(module), devPath_(std::move(dev_path)),
      cfg_(std::move(cfg)), onStarted_(std::move(on_started)),
      tuning_(tuning), mode_(mode),
      currentPeriod_(cfg_.timerPeriod)
{
    panic_if(module_ == nullptr, "controller without module");
}

void
ControllerBehavior::onSyscallOk(kernel::Kernel &kernel)
{
    if (heartbeat_) {
        heartbeat_->lastBeat.store(kernel.now(),
                                   std::memory_order_relaxed);
        heartbeat_->beats.fetch_add(1, std::memory_order_relaxed);
    }
}

void
ControllerBehavior::armed(kernel::Kernel &kernel)
{
    // Each incarnation that arms monitoring opens a fresh durable
    // epoch, so recovery can splice around the outage between them.
    if (durableLog_)
        durableLog_->beginEpoch(kernel.now());
    // Re-sync the (session-lived) governor to the period actually
    // in force: after a re-attach this is whatever the predecessor
    // last managed to program, and any proposal that died with the
    // predecessor is flushed.
    if (governor_)
        governor_->adopt(currentPeriod_);
    started_ = true;
    if (onStarted_)
        onStarted_();
}

long
ControllerBehavior::doIoctl(kernel::Kernel &kernel,
                            kernel::Process &self,
                            std::uint32_t cmd, void *arg)
{
    // Transient faults are drawn from the kernel's chardev fault
    // source first, so a faulted call never touches the module.
    if (long rc = kernel.drawChardevFault(devPath_, false))
        return rc;
    // The module pointer is only compared, never dereferenced,
    // until the registry confirms it is still the device bound at
    // our path -- an unloaded module must not be touched.
    if (kernel.moduleAt(devPath_) != module_)
        return kernel::err::enxio;
    return module_->ioctl(kernel, self, cmd, arg);
}

long
ControllerBehavior::doRead(kernel::Kernel &kernel,
                           kernel::Process &self, void *buf,
                           std::size_t len)
{
    if (long rc = kernel.drawChardevFault(devPath_, true))
        return rc;
    if (kernel.moduleAt(devPath_) != module_)
        return kernel::err::enxio;
    return module_->read(kernel, self, buf, len);
}

bool
ControllerBehavior::handleRc(long rc, State retry_state,
                             const char *what)
{
    if (rc == 0) {
        attempts_ = 0;
        return true;
    }
    if ((rc == kernel::err::eagain || rc == kernel::err::ebusy) &&
        attempts_ < tuning_.maxRetries) {
        ++attempts_;
        ++retries_;
        // Clamp the exponent and saturate the shift: a generous
        // maxRetries tuning must degrade to "sleep a long time",
        // never shift past the Tick width (UB) or wrap to a short
        // sleep.
        const int shift = std::min(attempts_ - 1, 10);
        retrySleep_ = saturatingShl(tuning_.retryBackoff, shift);
        retryPending_ = true;
        state_ = retry_state;
        return false;
    }
    if (rc == kernel::err::enxio || rc == kernel::err::eio ||
        rc == kernel::err::eagain || rc == kernel::err::ebusy) {
        // Device gone, hard I/O error, or transient failures past
        // the retry budget (EAGAIN from fault injection, EBUSY from
        // PMU contention): abort the session but keep (and flush)
        // everything logged so far.  Retry state is cleared so a
        // later incarnation (or any state reached after the abort)
        // never inherits a stale pending sleep.
        attempts_ = 0;
        retrySleep_ = 0;
        retryPending_ = false;
        aborted_ = true;
        state_ = State::abortFlush;
        return false;
    }
    fatal("K-LEB ", what, " failed: ", rc);
}

kernel::ServiceOp
ControllerBehavior::nextOp(kernel::Kernel &kernel,
                           kernel::Process &self)
{
    using Op = kernel::ServiceOp;

    switch (state_) {
      case State::setup:
        if (mode_ == Mode::reattach) {
            state_ = State::attach;
            return Op::makeCompute(tuning_.attachCost, 16 * 1024);
        }
        state_ = State::configure;
        return Op::makeCompute(tuning_.setupCost, 64 * 1024);

      case State::configure:
        if (retryPending_) {
            retryPending_ = false;
            return Op::makeSleep(retrySleep_);
        }
        state_ = State::start;
        return Op::makeSyscall(
            [this](kernel::Kernel &k, kernel::Process &me) {
                long rc = doIoctl(k, me, ioc::config, &cfg_);
                if (!handleRc(rc, State::configure,
                              "CONFIG ioctl"))
                    return;
                onSyscallOk(k);
            });

      case State::start:
        if (retryPending_) {
            retryPending_ = false;
            return Op::makeSleep(retrySleep_);
        }
        state_ = State::sleep;
        return Op::makeSyscall(
            [this](kernel::Kernel &k, kernel::Process &me) {
                long rc = doIoctl(k, me, ioc::start, nullptr);
                if (!handleRc(rc, State::start, "START ioctl"))
                    return;
                module_->setWakeTarget(&me);
                onSyscallOk(k);
                armed(k);
            });

      case State::attach:
        if (retryPending_) {
            retryPending_ = false;
            return Op::makeSleep(retrySleep_);
        }
        state_ = State::sleep;
        return Op::makeSyscall(
            [this](kernel::Kernel &k, kernel::Process &me) {
                KLebStatus st;
                long rc = doIoctl(k, me, ioc::attach, &st);
                if (!handleRc(rc, State::attach, "ATTACH ioctl"))
                    return;
                onSyscallOk(k);
                if (!st.configured) {
                    // The predecessor died before CONFIG landed:
                    // nothing to adopt, run the fresh path.
                    state_ = State::configure;
                    return;
                }
                // Adopt the module's actual period: a predecessor's
                // SET_PERIOD may or may not have landed before it
                // died, and the rate-change journal must continue
                // from the truth, not from our configure-time copy.
                if (st.currentPeriod != 0) {
                    currentPeriod_ = st.currentPeriod;
                    cfg_.timerPeriod = st.currentPeriod;
                }
                armed(k);
            });

      case State::sleep: {
        state_ = State::drain;
        Tick stall =
            tuning_.drainStallHook ? tuning_.drainStallHook() : 0;
        if (Tick hang = tuning_.hangHook ? tuning_.hangHook() : 0) {
            module_->setWakeTarget(nullptr);
            stall += hang;
        }
        return Op::makeSleep(tuning_.drainInterval + stall);
      }

      case State::drain:
        if (retryPending_) {
            retryPending_ = false;
            return Op::makeSleep(retrySleep_);
        }
        state_ = State::logWrite;
        return Op::makeSyscall(
            [this](kernel::Kernel &k, kernel::Process &me) {
                DrainRequest req;
                req.out = &log_;
                req.max = tuning_.batchMax;
                std::size_t before = log_.size();
                long rc = doRead(k, me, &req, sizeof(req));
                if (!handleRc(rc < 0 ? rc : 0, State::drain,
                              "read"))
                    return;
                lastDrained_ = log_.size() - before;
                moduleFinished_ = req.finished;
                ++drains_;
                onSyscallOk(k);
                // Durability: the drained batch is journaled as
                // part of the drain syscall, so a crash between
                // drains never loses an already-drained sample.
                if (durableLog_) {
                    for (std::size_t i = before; i < log_.size();
                         ++i)
                        durableLog_->append(log_[i]);
                }
                // Adaptive sampling: feed the governor one drain
                // cycle; a proposal becomes a pending SET_PERIOD
                // that logWrite routes through State::setPeriod.
                if (governor_ && !moduleFinished_) {
                    if (auto p = governor_->observe(k.now(),
                                                    lastDrained_))
                        pendingPeriod_ = *p;
                }
            });

      case State::logWrite:
        if (lastDrained_ == 0 && moduleFinished_) {
            state_ = State::finalStatus;
            return Op::makeSyscall(
                [this](kernel::Kernel &k, kernel::Process &me) {
                    // Best-effort: the module may already be gone;
                    // the session still ends cleanly either way.
                    KLebStatus st;
                    (void)doIoctl(k, me, ioc::status, &st);
                });
        }
        state_ = pendingPeriod_ != 0 ? State::setPeriod
                                     : State::sleep;
        if (lastDrained_ == 0)
            return Op::makeCompute(usToTicks(2), 4096);
        return Op::makeCompute(
            tuning_.logBase +
                tuning_.logPerSample *
                    static_cast<Tick>(lastDrained_),
            tuning_.logFootprint);

      case State::setPeriod:
        if (retryPending_) {
            retryPending_ = false;
            return Op::makeSleep(retrySleep_);
        }
        // The reprogram is now committed; the fault hook may aim a
        // crash into the window where the change races the syscall.
        if (tuning_.reprogramHook)
            tuning_.reprogramHook(kernel, self);
        state_ = State::sleep;
        return Op::makeSyscall(
            [this](kernel::Kernel &k, kernel::Process &me) {
                long rc;
                if (tuning_.setPeriodFaultHook &&
                    tuning_.setPeriodFaultHook())
                    rc = kernel::err::eagain;
                else
                    rc = doIoctl(k, me, ioc::setPeriod,
                                 &pendingPeriod_);
                if (rc == kernel::err::eagain &&
                    attempts_ >= tuning_.maxRetries) {
                    // A rate retune is best-effort: exhausting the
                    // retry budget drops the proposal and keeps
                    // monitoring alive at the old period, instead
                    // of aborting the whole session.
                    attempts_ = 0;
                    retrySleep_ = 0;
                    retryPending_ = false;
                    pendingPeriod_ = 0;
                    if (governor_)
                        governor_->rejected();
                    return;
                }
                if (!handleRc(rc, State::setPeriod,
                              "SET_PERIOD ioctl"))
                    return;
                onSyscallOk(k);
                const Tick old = currentPeriod_;
                currentPeriod_ = pendingPeriod_;
                cfg_.timerPeriod = pendingPeriod_;
                ++periodChanges_;
                // Journaled in the same syscall as the ioctl, so
                // the durable log and the module can never disagree
                // about a change that landed.
                if (durableLog_)
                    durableLog_->recordRateChange(
                        k.now(), old, currentPeriod_);
                if (governor_)
                    governor_->applied(currentPeriod_);
                pendingPeriod_ = 0;
            });

      case State::finalStatus:
        state_ = State::done;
        finished_ = true;
        return Op::makeExit();

      case State::abortFlush:
        // Degrade, don't wedge: if the abort hit before START
        // completed, the workload still runs (unmonitored) so the
        // rest of the simulation proceeds.  Re-attach incarnations
        // skip this — their abort is the supervisor's problem (it
        // retries or gives up), not a reason to double-start.
        if (onAborted_)
            onAborted_(started_);
        if (mode_ == Mode::fresh && !started_ && onStarted_) {
            started_ = true;
            onStarted_();
        }
        state_ = State::done;
        finished_ = true;
        return Op::makeCompute(
            tuning_.logBase +
                tuning_.logPerSample *
                    static_cast<Tick>(lastDrained_),
            tuning_.logFootprint);

      case State::done:
        return Op::makeExit();
    }
    panic("controller behavior ran past exit");
}

} // namespace klebsim::kleb
