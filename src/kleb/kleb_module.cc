#include "kleb_module.hh"

#include <algorithm>

#include "base/logging.hh"
#include "hw/pmu.hh"

namespace klebsim::kleb
{

KLebModule::KLebModule() : tuning_()
{
}

KLebModule::KLebModule(Tuning tuning) : tuning_(tuning)
{
}

KLebModule::~KLebModule() = default;

void
KLebModule::init(kernel::Kernel &kernel)
{
    kernel_ = &kernel;
    perCpu_.resize(static_cast<std::size_t>(kernel.numCores()));
    switchHookId_ = kernel.registerSwitchHook(
        [this](kernel::Process *prev, kernel::Process *next,
               CoreId core) { onSwitch(prev, next, core); });
    exitHookId_ = kernel.registerExitHook(
        [this](kernel::Process &proc) { onProcessExit(proc); });
    cpuHookId_ = kernel.registerCpuHook(
        [this](CoreId core, kernel::CpuEvent event) {
            onCpuEvent(core, event);
        });
}

void
KLebModule::exitModule(kernel::Kernel &kernel)
{
    if (monitoring_)
        stopMonitoring(SampleCause::final);
    for (PerCpuState &pc : perCpu_)
        if (pc.timer)
            pc.timer->cancel();
    releaseAll();
    kernel.unregisterSwitchHook(switchHookId_);
    kernel.unregisterExitHook(exitHookId_);
    kernel.unregisterCpuHook(cpuHookId_);
}

KLebModule::PerCpuState &
KLebModule::slot(CoreId core)
{
    panic_if(core < 0 ||
                 static_cast<std::size_t>(core) >= perCpu_.size(),
             "k_leb: per-CPU slot for invalid core ", core);
    return perCpu_[static_cast<std::size_t>(core)];
}

const KLebModule::PerCpuState *
KLebModule::slotIfValid(CoreId core) const
{
    if (core < 0 || static_cast<std::size_t>(core) >= perCpu_.size())
        return nullptr;
    return &perCpu_[static_cast<std::size_t>(core)];
}

std::uint64_t
KLebModule::claimCookie() const
{
    // Any stable nonzero value distinguishing this driver instance
    // works as a perf_event-style ownership cookie.
    return static_cast<std::uint64_t>(
        reinterpret_cast<std::uintptr_t>(this));
}

kernel::HrTimer *
KLebModule::timer()
{
    const PerCpuState *pc = slotIfValid(activeCore_);
    return pc ? pc->timer : nullptr;
}

void
KLebModule::setTimerJitterModel(const hw::TimerJitterModel &m)
{
    jitterOverride_ = m;
    for (PerCpuState &pc : perCpu_)
        if (pc.timer)
            pc.timer->setJitterModel(m);
}

bool
KLebModule::isMonitored(const kernel::Process *proc)
{
    if (proc == nullptr || cfg_.targetPid == invalidPid)
        return false;
    if (proc->pid() == cfg_.targetPid)
        return true;
    return cfg_.traceChildren &&
           kernel_->isDescendantOf(proc->pid(), cfg_.targetPid);
}

bool
KLebModule::claimPmu(CoreId core)
{
    // Advisory ownership first (perf_event convention), with the
    // pmu.contend fault able to interpose a phantom owner.
    if (kernel_->drawPmuContendFault(core))
        return false;
    if (!kernel_->core(core).pmu().tryAcquire(claimCookie()))
        return false;
    slot(core).claimed = true;
    return true;
}

void
KLebModule::releaseAll()
{
    for (std::size_t cpu = 0; cpu < perCpu_.size(); ++cpu) {
        if (perCpu_[cpu].claimed) {
            kernel_->core(static_cast<CoreId>(cpu))
                .pmu()
                .release(claimCookie());
            perCpu_[cpu].claimed = false;
        }
    }
}

void
KLebModule::programPmu(CoreId core)
{
    hw::Pmu &pmu = kernel_->core(core).pmu();
    counterMap_.clear();

    int next_pmc = 0;
    for (hw::HwEvent ev : cfg_.events) {
        CounterRef ref;
        if (ev == hw::HwEvent::instRetired) {
            ref.fixed = true;
            ref.idx = 0;
        } else if (ev == hw::HwEvent::coreCycles) {
            ref.fixed = true;
            ref.idx = 1;
        } else if (ev == hw::HwEvent::refCycles) {
            ref.fixed = true;
            ref.idx = 2;
        } else {
            fatal_if(next_pmc >= hw::Pmu::numProgrammable,
                     "k_leb: more than ",
                     hw::Pmu::numProgrammable,
                     " programmable events requested");
            ref.fixed = false;
            ref.idx = next_pmc;
            pmu.programCounter(next_pmc, ev, true,
                               cfg_.countKernel);
            ++next_pmc;
        }
        counterMap_.push_back(ref);
    }
    for (int i = next_pmc; i < hw::Pmu::numProgrammable; ++i)
        pmu.clearCounter(i);
    for (int i = 0; i < hw::Pmu::numFixed; ++i)
        pmu.programFixed(i, true, cfg_.countKernel);
    pmu.globalDisable();

    PerCpuState &pc = slot(core);
    pc.programmed = true;
    pc.modulus = pmu.counterMaskValue() + 1;
    pc.lastRaw.fill(0);
    pc.wrapBase.fill(0);
}

long
KLebModule::ioctl(kernel::Kernel &kernel, kernel::Process &caller,
                  std::uint32_t cmd, void *arg)
{
    switch (cmd) {
      case ioc::config: {
        if (monitoring_)
            return kernel::err::ebusy;
        auto *cfg = static_cast<KLebConfig *>(arg);
        if (cfg == nullptr || cfg->events.empty() ||
            cfg->events.size() > maxSampleEvents ||
            cfg->timerPeriod == 0 || cfg->bufferCapacity == 0)
            return kernel::err::einval;
        kernel.chargeKernelWork(caller.affinity(),
                                tuning_.configCost, 8192);
        cfg_ = *cfg;
        // Reconfiguration drops anything undrained, exactly as the
        // single-ring module did when it replaced its buffer.
        for (PerCpuState &pc : perCpu_)
            pc.ring.reset();
        spill_.clear();
        configured_ = true;
        periodChanges_ = 0;
        return 0;
      }
      case ioc::start: {
        if (!configured_ || monitoring_)
            return kernel::err::einval;
        kernel::Process *target =
            kernel.findProcess(cfg_.targetPid);
        startCore_ = target ? target->affinity() : caller.affinity();
        activeCore_ = startCore_;
        // Claim the start core's PMU before touching selectors; a
        // contending owner (or an injected pmu.contend fault)
        // refuses START with EBUSY and the controller backs off.
        if (!slot(startCore_).claimed && !claimPmu(startCore_)) {
            ++contentionEvents_;
            return kernel::err::ebusy;
        }
        programPmu(startCore_);
        monitoring_ = true;
        counting_ = false;
        targetAlive_ = true;
        samplesEmitted_ = 0;
        samplesKept_ = 0;
        samplesMigrated_ = 0;
        samplesDropped_ = 0;
        pauseEpisodes_ = 0;
        coreMarkers_ = 0;
        targetMigrations_ = 0;
        degradedCores_ = 0;
        lostToContention_ = 0;
        counterWraps_ = 0;
        carried_.fill(0);
        for (PerCpuState &pc : perCpu_) {
            pc.timerStarted = false;
            pc.paused = false;
            pc.degraded = false;
            pc.claimFailures = 0;
            if (&pc != &slot(startCore_))
                pc.programmed = false;
            pc.lastRaw.fill(0);
            pc.wrapBase.fill(0);
            pc.base.fill(0);
        }
        {
            PerCpuState &pc = slot(startCore_);
            if (!pc.ring)
                pc.ring = std::make_unique<RingBuffer<Sample>>(
                    cfg_.bufferCapacity);
            // A fresh timer per session, exactly as before; the
            // first expiry anchors this core's sampling grid.
            pc.timer = kernel.createHrTimer(
                name() + "-hrtimer", startCore_,
                [this, core = startCore_] { onTimer(core); },
                tuning_.handlerCost, tuning_.handlerFootprint);
            if (jitterOverride_)
                pc.timer->setJitterModel(*jitterOverride_);
        }
        // Starting on a process that is already gone finalizes
        // immediately: there is nothing to trace.
        if (target == nullptr ||
            target->state() == kernel::ProcState::zombie) {
            targetAlive_ = false;
            stopMonitoring(SampleCause::final);
            return 0;
        }
        // If the target is already on-core, begin immediately
        // (settling lazy attribution so pre-START execution never
        // reaches the counters).
        kernel::Process *running = kernel.running(startCore_);
        if (running && isMonitored(running)) {
            kernel.core(startCore_).syncTo(kernel.now());
            counting_ = true;
            kernel.core(startCore_).pmu().globalEnableAll();
            startOrResumeTimer(startCore_);
        }
        return 0;
      }
      case ioc::stop: {
        if (!monitoring_)
            return kernel::err::einval;
        stopMonitoring(SampleCause::final);
        return 0;
      }
      case ioc::status: {
        auto *st = static_cast<KLebStatus *>(arg);
        if (st == nullptr)
            return kernel::err::einval;
        *st = status();
        return 0;
      }
      case ioc::setPeriod: {
        // Retune the sampling rate mid-session (adaptive
        // monitoring).  The armed HRTimer keeps its in-flight
        // deadline, so the pending sample still lands exactly once;
        // only expiries after it space at the new period.
        auto *period = static_cast<Tick *>(arg);
        if (period == nullptr || *period == 0)
            return kernel::err::einval;
        if (!configured_)
            return kernel::err::einval;
        kernel.chargeKernelWork(caller.affinity(),
                                tuning_.setPeriodCost, 256);
        cfg_.timerPeriod = *period;
        for (PerCpuState &pc : perCpu_)
            if (pc.timer && pc.timerStarted)
                pc.timer->setPeriod(*period);
        ++periodChanges_;
        return 0;
      }
      case ioc::attach: {
        // A replacement controller adopting an in-flight session:
        // rebind the wake target and report where monitoring
        // stands.  Valid in any module state — the caller decides
        // (from status.configured) whether to fall back to the
        // fresh CONFIG/START path.
        auto *st = static_cast<KLebStatus *>(arg);
        if (st == nullptr)
            return kernel::err::einval;
        wakeTarget_ = &caller;
        *st = status();
        return 0;
      }
      default:
        return kernel::err::enotty;
    }
}

long
KLebModule::read(kernel::Kernel &kernel, kernel::Process &caller,
                 void *buf, std::size_t len)
{
    (void)len;
    auto *req = static_cast<DrainRequest *>(buf);
    if (req == nullptr || req->out == nullptr)
        return kernel::err::einval;
    if (!configured_) {
        req->finished = !monitoring_;
        return 0;
    }

    // K-way merge across the spill queue and every core's ring so
    // the controller sees one globally timestamp-ordered stream.
    // Ties resolve spill-first, then lowest core id: deterministic.
    std::size_t drained_count = 0;
    while (req->max == 0 || drained_count < req->max) {
        const Sample *best = nullptr;
        bool from_spill = false;
        std::size_t src_core = 0;
        if (!spill_.empty()) {
            best = &spill_.front();
            from_spill = true;
        }
        for (std::size_t cpu = 0; cpu < perCpu_.size(); ++cpu) {
            const auto &ring = perCpu_[cpu].ring;
            if (ring && !ring->empty() &&
                (best == nullptr ||
                 ring->front().timestamp < best->timestamp)) {
                best = &ring->front();
                from_spill = false;
                src_core = cpu;
            }
        }
        if (best == nullptr)
            break;
        if (from_spill) {
            req->out->push_back(spill_.front());
            spill_.pop_front();
        } else {
            Sample s;
            perCpu_[src_core].ring->pop(s);
            req->out->push_back(s);
        }
        ++drained_count;
    }

    if (drained_count != 0) {
        kernel.chargeKernelWork(
            caller.affinity(),
            tuning_.readPerSample *
                static_cast<Tick>(drained_count),
            drained_count * sizeof(Sample));
    }

    // Safety mechanism, resume half: once the controller has freed
    // enough space, collection continues automatically — per core,
    // so one congested ring never stalls the others.
    for (std::size_t cpu = 0; cpu < perCpu_.size(); ++cpu) {
        PerCpuState &pc = perCpu_[cpu];
        if (pc.paused && pc.ring &&
            pc.ring->size() <=
                pc.ring->capacity() / tuning_.resumeDivisor) {
            pc.paused = false;
            if (monitoring_ && counting_ &&
                static_cast<CoreId>(cpu) == activeCore_)
                startOrResumeTimer(activeCore_);
        }
    }

    bool empty = spill_.empty();
    for (const PerCpuState &pc : perCpu_)
        empty = empty && (!pc.ring || pc.ring->empty());
    req->finished = !monitoring_ && empty;
    return static_cast<long>(drained_count);
}

std::uint64_t
KLebModule::readCorrected(CoreId core, std::size_t i)
{
    PerCpuState &pc = slot(core);
    hw::Pmu &pmu = kernel_->core(core).pmu();
    const CounterRef &ref = counterMap_[i];
    // Read through the architectural RDPMC path (as the real
    // driver does) so read-observing tooling sees the access.
    std::uint32_t pmc_index =
        ref.fixed ? (hw::Pmu::rdpmcFixedFlag |
                     static_cast<std::uint32_t>(ref.idx))
                  : static_cast<std::uint32_t>(ref.idx);
    std::uint64_t raw = pmu.rdpmc(pmc_index);
    // Overflow-aware accumulation: counters only count up, so a
    // raw reading below the previous one means the counter
    // wrapped at its effective width since the last sample.
    if (raw < pc.lastRaw[i]) {
        pc.wrapBase[i] += pc.modulus;
        ++counterWraps_;
    }
    pc.lastRaw[i] = raw;
    return pc.wrapBase[i] + raw;
}

void
KLebModule::foldActiveDelta()
{
    // Settle whatever the (frozen) active core has accumulated
    // beyond its base into the carried total.  The PMU freeze at
    // switch-out is the migrate-out snapshot; the arithmetic is
    // deferred here, where it is first needed.
    if (activeCore_ == invalidCore)
        return;
    PerCpuState &pc = slot(activeCore_);
    if (!pc.programmed || pc.degraded)
        return;
    for (std::size_t i = 0; i < counterMap_.size(); ++i) {
        std::uint64_t v = readCorrected(activeCore_, i);
        carried_[i] += v - pc.base[i];
        pc.base[i] = v;
    }
}

void
KLebModule::currentCounts(Sample &s)
{
    for (std::size_t i = 0; i < counterMap_.size(); ++i)
        s.counts[i] = carried_[i];
    if (!counting_ || activeCore_ == invalidCore)
        return;
    PerCpuState &pc = slot(activeCore_);
    if (!pc.programmed || pc.degraded)
        return;
    kernel_->core(activeCore_).syncTo(kernel_->now());
    for (std::size_t i = 0; i < counterMap_.size(); ++i)
        s.counts[i] += readCorrected(activeCore_, i) - pc.base[i];
}

void
KLebModule::recordSample(SampleCause cause)
{
    PerCpuState &pc = slot(activeCore_);
    Sample s;
    s.timestamp = kernel_->now();
    s.cause = cause;
    s.numEvents = static_cast<std::uint8_t>(counterMap_.size());
    s.core = static_cast<std::uint16_t>(activeCore_);
    if (pc.programmed && !pc.degraded) {
        for (std::size_t i = 0; i < counterMap_.size(); ++i)
            s.counts[i] = carried_[i] +
                          readCorrected(activeCore_, i) - pc.base[i];
    } else {
        // Degraded or quiesced core: nothing was measured here, so
        // the cumulative series holds at the carried total.
        for (std::size_t i = 0; i < counterMap_.size(); ++i)
            s.counts[i] = carried_[i];
    }

    ++samplesEmitted_;
    if (!pc.ring) {
        // Only reachable off the happy path (final snapshot on a
        // core that never earned a ring): the spill queue is the
        // sample's home, it is never silently lost.
        spill_.push_back(s);
        ++samplesKept_;
        return;
    }
    if (!pc.ring->push(s)) {
        ++samplesDropped_;
        return;
    }
    ++samplesKept_;

    if (pc.ring->full() && cause != SampleCause::final) {
        pc.paused = true;
        ++pauseEpisodes_;
        if (pc.timer)
            pc.timer->cancel();
        wakeController();
    }
}

void
KLebModule::recordMarker(SampleCause cause, CoreId core)
{
    Sample s;
    s.timestamp = kernel_->now();
    s.cause = cause;
    s.numEvents = static_cast<std::uint8_t>(counterMap_.size());
    s.core = static_cast<std::uint16_t>(core);
    currentCounts(s);
    spill_.push_back(s);
    ++coreMarkers_;
}

void
KLebModule::startOrResumeTimer(CoreId core)
{
    PerCpuState &pc = slot(core);
    if (!pc.timer) {
        pc.timer = kernel_->createHrTimer(
            name() + "-hrtimer", core,
            [this, core] { onTimer(core); }, tuning_.handlerCost,
            tuning_.handlerFootprint);
        if (jitterOverride_)
            pc.timer->setJitterModel(*jitterOverride_);
    }
    // Keep one stable sampling grid per core for the whole session:
    // the first start anchors it; later switch-ins re-join it
    // (hrtimer_forward), so a co-scheduled controller can never
    // starve the timer by perpetually re-phasing it.
    if (pc.timerStarted) {
        pc.timer->resume();
    } else {
        pc.timer->startPeriodic(cfg_.timerPeriod);
        pc.timerStarted = true;
    }
}

void
KLebModule::onTimer(CoreId core)
{
    if (!monitoring_ || !counting_ || core != activeCore_)
        return;
    if (slot(core).paused)
        return;
    recordSample(SampleCause::timer);
}

void
KLebModule::onSwitch(kernel::Process *prev, kernel::Process *next,
                     CoreId core)
{
    if (!monitoring_)
        return;
    bool prev_mon = isMonitored(prev);
    bool next_mon = isMonitored(next);
    if (prev_mon == next_mon)
        return;

    if (prev_mon) {
        // Target scheduled out: freeze counters and stop the timer
        // so other processes never leak into the measurements.
        // The freeze *is* the migrate-out snapshot; the frozen
        // delta is folded into carried_ at the next switch-in
        // elsewhere.
        if (core != activeCore_)
            return;
        PerCpuState &pc = slot(core);
        if (pc.programmed && !pc.degraded)
            kernel_->core(core).pmu().globalDisable();
        counting_ = false;
        if (pc.timer && pc.timer->active())
            pc.timer->cancel();
        return;
    }

    // Switch-in.  The session follows one monitored flow: if the
    // counters are already live on another core (a concurrently
    // scheduled descendant), that flow keeps them.
    if (counting_)
        return;
    PerCpuState &pc = slot(core);
    if (core != activeCore_) {
        // Migrate-in: settle the old core, then claim and program
        // this one.
        foldActiveDelta();
        if (pc.degraded) {
            ++lostToContention_;
            return;
        }
        if (!pc.claimed && !claimPmu(core)) {
            // pmu.contend: EBUSY from this core's PMU.  Forfeit
            // this window, retry at the next switch-in, and degrade
            // this core only once the retry budget is spent.
            ++contentionEvents_;
            ++pc.claimFailures;
            ++lostToContention_;
            if (pc.claimFailures >= tuning_.maxClaimRetries) {
                pc.degraded = true;
                ++degradedCores_;
            }
            return;
        }
        if (!pc.ring)
            pc.ring = std::make_unique<RingBuffer<Sample>>(
                cfg_.bufferCapacity);
        if (!pc.programmed)
            programPmu(core);
        // Re-anchor: whatever the counters held before this moment
        // belongs to other flows (or already to carried_).
        for (std::size_t i = 0; i < counterMap_.size(); ++i)
            pc.base[i] = readCorrected(core, i);
        ++targetMigrations_;
        activeCore_ = core;
    } else if (pc.degraded) {
        ++lostToContention_;
        return;
    }
    kernel_->core(core).pmu().globalEnableAll();
    counting_ = true;
    if (!pc.paused)
        startOrResumeTimer(core);
}

void
KLebModule::quiesceCore(CoreId core)
{
    PerCpuState &pc = slot(core);

    // Snapshot before the hardware vanishes: if this is the active
    // core, settle its delta into carried_ now (attributing any
    // pending execution first).
    if (core == activeCore_ && pc.programmed && !pc.degraded) {
        kernel_->core(core).syncTo(kernel_->now());
        foldActiveDelta();
    }

    // Relocate the ring's undrained samples into the spill queue —
    // merged by timestamp so the drain stays globally ordered —
    // then journal the outage marker after them.
    if (pc.ring && !pc.ring->empty()) {
        std::size_t old_size = spill_.size();
        Sample s;
        while (pc.ring->pop(s))
            spill_.push_back(s);
        std::size_t moved = spill_.size() - old_size;
        samplesKept_ -= moved;
        samplesMigrated_ += moved;
        std::inplace_merge(
            spill_.begin(),
            spill_.begin() + static_cast<std::ptrdiff_t>(old_size),
            spill_.end(), [](const Sample &a, const Sample &b) {
                return a.timestamp < b.timestamp;
            });
    }
    recordMarker(SampleCause::coreOffline, core);

    if (pc.timer && pc.timer->active())
        pc.timer->cancel();
    pc.timerStarted = false;

    // The core's PMU state does not survive the outage: drop the
    // claim and force a reprogram (and base resync) if the target
    // ever comes back here.
    if (pc.programmed)
        kernel_->core(core).pmu().globalDisable();
    if (pc.claimed) {
        kernel_->core(core).pmu().release(claimCookie());
        pc.claimed = false;
    }
    pc.programmed = false;
    pc.paused = false;
}

void
KLebModule::onCpuEvent(CoreId core, kernel::CpuEvent event)
{
    if (!monitoring_)
        return;
    switch (event) {
      case kernel::CpuEvent::goingOffline:
        // Teardown callback: the core still works; quiesce while
        // we can still read its counters.
        quiesceCore(core);
        break;
      case kernel::CpuEvent::offline:
        break;
      case kernel::CpuEvent::online: {
        PerCpuState &pc = slot(core);
        // Fresh silicon: contention verdicts and pause state from
        // before the outage no longer apply.
        pc.paused = false;
        pc.degraded = false;
        pc.claimFailures = 0;
        recordMarker(SampleCause::coreOnline, core);
        break;
      }
    }
}

void
KLebModule::onProcessExit(kernel::Process &proc)
{
    if (!monitoring_)
        return;
    if (proc.pid() == cfg_.targetPid) {
        targetAlive_ = false;
        stopMonitoring(SampleCause::final);
    }
}

void
KLebModule::stopMonitoring(SampleCause cause)
{
    if (!monitoring_)
        return;
    recordSample(cause);
    monitoring_ = false;
    counting_ = false;
    for (std::size_t cpu = 0; cpu < perCpu_.size(); ++cpu) {
        PerCpuState &pc = perCpu_[cpu];
        if (pc.programmed)
            kernel_->core(static_cast<CoreId>(cpu))
                .pmu()
                .globalDisable();
        if (pc.timer)
            pc.timer->cancel();
    }
    releaseAll();
    wakeController();
}

void
KLebModule::wakeController()
{
    if (wakeTarget_)
        kernel_->wake(wakeTarget_);
}

KLebStatus
KLebModule::status() const
{
    KLebStatus st;
    st.configured = configured_;
    st.monitoring = monitoring_;
    st.targetAlive = targetAlive_;
    std::size_t pending = spill_.size();
    for (const PerCpuState &pc : perCpu_) {
        st.paused = st.paused || pc.paused;
        if (pc.ring)
            pending += pc.ring->size();
    }
    st.pendingSamples = pending;
    st.samplesRecorded = samplesKept_ + samplesMigrated_;
    st.samplesDropped = samplesDropped_;
    st.pauseEpisodes = pauseEpisodes_;
    st.counterWraps = counterWraps_;
    st.currentPeriod = configured_ ? cfg_.timerPeriod : 0;
    st.periodChanges = periodChanges_;
    st.samplesEmitted = samplesEmitted_;
    st.samplesKept = samplesKept_;
    st.samplesMigrated = samplesMigrated_;
    st.coreMarkers = coreMarkers_;
    st.targetMigrations = targetMigrations_;
    st.contentionEvents = contentionEvents_;
    st.degradedCores = degradedCores_;
    st.lostToContention = lostToContention_;
    st.activeCore = activeCore_;
    return st;
}

} // namespace klebsim::kleb
