#include "session.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/str.hh"

namespace klebsim::kleb
{

namespace
{

/**
 * First unbound /dev/klebN minor in @p kernel.  Allocating from the
 * kernel's own device table (instead of a process-wide counter)
 * keeps the path deterministic per simulated machine — concurrent
 * trials on other threads each start at /dev/kleb0 — and makes the
 * lookup free of shared mutable state.
 */
std::string
nextDevPath(kernel::Kernel &kernel)
{
    for (int minor = 0;; ++minor) {
        std::string path = csprintf("/dev/kleb%d", minor);
        if (kernel.moduleAt(path) == nullptr)
            return path;
    }
}

} // anonymous namespace

Session::Session(kernel::System &sys, Options options)
    : sys_(sys), options_(std::move(options))
{
    devPath_ = nextDevPath(sys_.kernel());
    int attempts = 1 + std::max(0, options_.loadRetries);
    for (int i = 0; i < attempts; ++i) {
        ++loadAttempts_;
        auto module = std::make_unique<KLebModule>(
            options_.moduleTuning);
        KLebModule *raw = module.get();
        if (sys_.kernel().tryLoadModule(std::move(module),
                                        devPath_)) {
            module_ = raw;
            break;
        }
    }
    loadFailed_ = module_ == nullptr;
    if (loadFailed_)
        return;

    // Snapshot the final status and drop the pointer the moment
    // our module is unloaded, whoever unloads it: every later
    // status() call then reads the snapshot, never freed memory.
    moduleHookId_ = sys_.kernel().registerModuleHook(
        [this](kernel::KernelModule &mod, const std::string &path,
               bool loaded) {
            if (loaded || path != devPath_ ||
                &mod != static_cast<kernel::KernelModule *>(
                            module_))
                return;
            lastStatus_ = module_->status();
            module_ = nullptr;
        });
}

Session::~Session()
{
    // Exactly-once module teardown: whoever unloads first (a test,
    // a crash of the whole machine, or this destructor) trips the
    // module hook, which nulls module_ — so the rmmod below can
    // never run twice, and a module left loaded by a dead
    // controller (supervisor out of budget, degrade path) is still
    // reclaimed here.
    if (module_ != nullptr)
        sys_.kernel().unloadModule(devPath_);
    if (moduleHookId_ != -1)
        sys_.kernel().unregisterModuleHook(moduleHookId_);
    if (cpuHookId_ != -1)
        sys_.kernel().unregisterCpuHook(cpuHookId_);
}

KLebStatus
Session::status() const
{
    return module_ ? module_->status() : lastStatus_;
}

void
Session::monitor(kernel::Process *target, bool start_target)
{
    panic_if(target == nullptr, "Session::monitor(null)");
    panic_if(controller_ != nullptr, "session already monitoring");
    target_ = target;

    // Module never came up: degrade to an unmonitored run rather
    // than wedging the simulation behind a process that would
    // never be started.
    if (loadFailed_) {
        if (start_target)
            sys_.kernel().startProcess(target);
        return;
    }

    cfg_ = KLebConfig{};
    cfg_.targetPid = target->pid();
    cfg_.events = options_.events;
    cfg_.timerPeriod = options_.period;
    cfg_.bufferCapacity = options_.bufferCapacity;
    cfg_.traceChildren = options_.traceChildren;
    cfg_.countKernel = options_.countKernel;

    auto on_started = [this, target, start_target] {
        if (options_.idealTimer && module_) {
            module_->setTimerJitterModel(
                hw::TimerJitterModel::ideal());
        }
        if (start_target && target->state() ==
                                kernel::ProcState::created)
            sys_.kernel().startProcess(target);
    };

    if (options_.supervise || options_.durableLog)
        durableLog_ = std::make_unique<DurableLog>();

    if (options_.adaptive) {
        RateGovernor::Config gc = options_.governor;
        // Derive the cost model from the same calibrated tunings
        // the simulation charges, so the governor's estimate tracks
        // the overhead the machine actually experiences.
        if (gc.costPerSample == 0)
            gc.costPerSample =
                options_.controllerTuning.logPerSample +
                options_.moduleTuning.handlerCost +
                options_.moduleTuning.readPerSample;
        if (gc.costPerDrain == 0)
            gc.costPerDrain = options_.controllerTuning.logBase;
        governor_ =
            std::make_unique<RateGovernor>(gc, cfg_.timerPeriod);
        // Hotplug hysteresis: an offline->online cycle of any core
        // resets the governor's estimator so the quiesce/re-arm
        // transient never drives a proposal.
        cpuHookId_ = sys_.kernel().registerCpuHook(
            [this](CoreId c, kernel::CpuEvent ev) {
                if (ev == kernel::CpuEvent::goingOffline)
                    governor_->noteCoreOffline(c);
                else if (ev == kernel::CpuEvent::online)
                    governor_->noteCoreOnline(c);
            });
    }

    // The ideal-timer override must also apply to a timer created
    // after START; install via the behavior's start hook above and
    // again below in case of re-arm.
    behavior_ = std::make_unique<ControllerBehavior>(
        module_, devPath_, cfg_, on_started,
        options_.controllerTuning);
    plumbBehavior(*behavior_);

    CoreId core = options_.controllerCore != invalidCore
                      ? options_.controllerCore
                      : target->affinity();
    controller_ = sys_.kernel().createService(
        "kleb-controller", behavior_.get(), core);
    sys_.kernel().startProcess(controller_);

    if (options_.supervise) {
        heartbeat_.lastBeat.store(sys_.now(),
                                  std::memory_order_relaxed);
        SupervisorBehavior::Ward ward;
        ward.controller = [this] { return controller_; };
        ward.finishedCleanly = [this] {
            return behavior_ && behavior_->finished() &&
                   !behavior_->aborted();
        };
        ward.moduleLoaded = [this] {
            return module_ != nullptr;
        };
        ward.restart = [this](Tick) {
            return restartController();
        };
        ward.giveUp = [this, target, start_target] {
            // Monitoring is over for good; make sure the target at
            // least runs so the simulation can finish.
            if (start_target && target->state() ==
                                    kernel::ProcState::created)
                sys_.kernel().startProcess(target);
        };
        supervisorBehavior_ =
            std::make_unique<SupervisorBehavior>(
                std::move(ward), &heartbeat_,
                options_.supervisorTuning);
        // The watchdog must not share a CPU with its ward: a hung
        // controller wedges inside a syscall that monopolizes its
        // core, and a same-core supervisor would be starved of the
        // very poll that is meant to detect the hang.  An explicit
        // pin onto the ward's core is refused, not quietly moved.
        CoreId sup_core = core;
        if (options_.supervisorCore != invalidCore) {
            fatal_if(options_.supervisorCore == core,
                     "supervisor pinned to core ",
                     options_.supervisorCore,
                     ", the same core as its ward controller; a "
                     "same-core watchdog cannot detect a hang");
            sup_core = options_.supervisorCore;
        } else if (sys_.kernel().numCores() > 1) {
            sup_core = static_cast<CoreId>(
                (core + 1) % sys_.kernel().numCores());
        }
        supervisor_ = sys_.kernel().createService(
            "kleb-supervisor", supervisorBehavior_.get(),
            sup_core);
        sys_.kernel().startProcess(supervisor_);
    }
}

void
Session::plumbBehavior(ControllerBehavior &b)
{
    if (durableLog_)
        b.setDurableLog(durableLog_.get());
    if (options_.supervise)
        b.setHeartbeat(&heartbeat_);
    if (governor_)
        b.setGovernor(governor_.get());
}

kernel::Process *
Session::restartController()
{
    if (module_ == nullptr)
        return nullptr;

    retired_.push_back(std::move(behavior_));

    auto on_attached = [this] {
        if (options_.idealTimer && module_) {
            module_->setTimerJitterModel(
                hw::TimerJitterModel::ideal());
        }
        // The predecessor may have died before ever starting the
        // target (crash between CONFIG and START): the reattach
        // fallback path re-arms and starts it now.
        if (target_ && target_->state() ==
                           kernel::ProcState::created)
            sys_.kernel().startProcess(target_);
        if (supervisorBehavior_)
            supervisorBehavior_->noteReattach(true);
    };

    behavior_ = std::make_unique<ControllerBehavior>(
        module_, devPath_, cfg_, on_attached,
        options_.controllerTuning,
        ControllerBehavior::Mode::reattach);
    plumbBehavior(*behavior_);
    behavior_->setOnAborted([this](bool armed) {
        if (!armed && supervisorBehavior_)
            supervisorBehavior_->noteReattach(false);
    });

    // Fresh grace period: the replacement needs setup + attach
    // time before its first beat.
    heartbeat_.lastBeat.store(sys_.now(), std::memory_order_relaxed);

    CoreId core = options_.controllerCore != invalidCore
                      ? options_.controllerCore
                      : (target_ ? target_->affinity() : CoreId{0});
    controller_ = sys_.kernel().createService(
        csprintf("kleb-controller-r%zu", retired_.size()),
        behavior_.get(), core);
    sys_.kernel().startProcess(controller_);
    return controller_;
}

bool
Session::finished() const
{
    if (behavior_)
        return behavior_->finished();
    // A failed-load session has nothing left to do.
    return loadFailed_;
}

const std::vector<Sample> &
Session::samples() const
{
    static const std::vector<Sample> empty;
    if (retired_.empty())
        return behavior_ ? behavior_->log() : empty;
    // Supervised sessions splice every incarnation's log, in
    // incarnation order (which is also time order).
    mergedSamples_.clear();
    for (const auto &b : retired_)
        mergedSamples_.insert(mergedSamples_.end(),
                              b->log().begin(), b->log().end());
    if (behavior_)
        mergedSamples_.insert(mergedSamples_.end(),
                              behavior_->log().begin(),
                              behavior_->log().end());
    return mergedSamples_;
}

std::uint64_t
Session::retries() const
{
    std::uint64_t total = 0;
    for (const auto &b : retired_)
        total += b->retries();
    if (behavior_)
        total += behavior_->retries();
    return total;
}

stats::TimeSeries
Session::series() const
{
    std::vector<std::string> names;
    for (hw::HwEvent ev : options_.events)
        names.emplace_back(hw::eventName(ev));
    stats::TimeSeries ts(names);
    for (const Sample &s : samples()) {
        // Hotplug markers are control records bounding a core
        // outage, not measurements; they live in the raw sample
        // log and the durable journal but not the series.
        if (isCoreMarker(s.cause))
            continue;
        std::vector<double> row;
        row.reserve(names.size());
        for (std::size_t i = 0; i < names.size(); ++i)
            row.push_back(static_cast<double>(s.counts[i]));
        ts.append(s.timestamp, row);
    }
    return ts;
}

stats::TimeSeries
Session::deltaSeries() const
{
    stats::TimeSeries cumulative = series();
    std::vector<std::string> names = cumulative.channelNames();
    stats::TimeSeries deltas(names);

    std::vector<std::vector<double>> cols;
    cols.reserve(names.size());
    for (std::size_t c = 0; c < names.size(); ++c)
        cols.push_back(cumulative.channelDeltas(c));
    for (std::size_t r = 0; r < cumulative.size(); ++r) {
        std::vector<double> row;
        row.reserve(names.size());
        for (std::size_t c = 0; c < names.size(); ++c)
            row.push_back(cols[c][r]);
        deltas.append(cumulative.timeAt(r), row);
    }
    return deltas;
}

hw::EventVector
Session::finalTotals() const
{
    hw::EventVector totals = hw::zeroEvents();
    const auto &log = samples();
    // The newest *measurement*: hotplug markers at the tail (a core
    // cycling after the final snapshot) are control records.
    for (auto it = log.rbegin(); it != log.rend(); ++it) {
        if (isCoreMarker(it->cause))
            continue;
        for (std::size_t i = 0; i < options_.events.size(); ++i)
            at(totals, options_.events[i]) = it->counts[i];
        break;
    }
    return totals;
}

} // namespace klebsim::kleb
