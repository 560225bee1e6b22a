#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "kernel/system.hh"
#include "kleb/kleb_module.hh"
#include "workload/microbench.hh"

using namespace klebsim;
using namespace klebsim::kernel;
using namespace klebsim::kleb;
using namespace klebsim::ticks_literals;
using klebsim::workload::FixedWorkSource;
using klebsim::workload::computeSource;

namespace
{

CostModel
quietCosts()
{
    CostModel c;
    c.costSigma = 0.0;
    c.runSigma = 0.0;
    return c;
}

/**
 * Drives ioctl/read against the module from a service process:
 * CONFIG, START, sleep until the module wakes it at the target's
 * exit, then read with DrainRequest::max = @p max until the module
 * reports finished.
 */
class ManualController : public ServiceBehavior
{
  public:
    ManualController(KLebModule *module, KLebConfig cfg,
                     Process **target_slot, std::size_t max = 0)
        : module_(module), cfg_(std::move(cfg)),
          targetSlot_(target_slot), max_(max)
    {
    }

    ServiceOp
    nextOp(Kernel &, Process &) override
    {
        switch (step_++) {
          case 0:
            return ServiceOp::makeSyscall(
                [this](Kernel &k, Process &me) {
                    configRc =
                        module_->ioctl(k, me, ioc::config, &cfg_);
                });
          case 1:
            return ServiceOp::makeSyscall(
                [this](Kernel &k, Process &me) {
                    startRc =
                        module_->ioctl(k, me, ioc::start, nullptr);
                    module_->setWakeTarget(&me);
                    if (*targetSlot_)
                        k.startProcess(*targetSlot_);
                });
          case 2:
            return ServiceOp::makeSleep(200_ms); // woken on finish
          default:
            if (finished)
                return ServiceOp::makeExit();
            return ServiceOp::makeSyscall(
                [this](Kernel &k, Process &me) {
                    if (*targetSlot_) {
                        EXPECT_EQ((*targetSlot_)->state(),
                                  ProcState::zombie);
                    }
                    const std::size_t before = samples.size();
                    DrainRequest req;
                    req.out = &samples;
                    req.max = max_;
                    long rc = module_->read(k, me, &req, 0);
                    EXPECT_EQ(rc,
                              static_cast<long>(samples.size() - before));
                    reads.push_back(samples.size() - before);
                    finished = req.finished;
                });
        }
    }

    KLebModule *module_;
    KLebConfig cfg_;
    Process **targetSlot_;
    std::size_t max_;
    int step_ = 0;
    long configRc = -99;
    long startRc = -99;
    std::vector<Sample> samples;
    std::vector<std::size_t> reads; //!< samples returned per read
    bool finished = false;
};

} // namespace

TEST(KLebModule, ConfigValidation)
{
    System sys;
    auto module = std::make_unique<KLebModule>();
    KLebModule *mod = module.get();
    sys.kernel().loadModule(std::move(module), "/dev/kleb");

    FixedWorkSource src = computeSource(1, 1000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);

    KLebConfig bad;
    bad.targetPid = target->pid();
    bad.events = {}; // invalid: no events
    Process *probe = nullptr;
    ManualController ctrl(mod, bad, &probe);
    Process *svc = sys.kernel().createService("c", &ctrl, 0);
    sys.kernel().startProcess(svc);
    sys.run();
    EXPECT_EQ(ctrl.configRc, -22);
    EXPECT_EQ(ctrl.startRc, -22); // start without valid config
}

TEST(KLebModule, TooManyProgrammableEventsRejectedByCap)
{
    KLebConfig cfg;
    cfg.events.assign(8, hw::HwEvent::llcMiss);
    EXPECT_GT(cfg.events.size(), maxSampleEvents);
}

TEST(KLebModule, CollectsPeriodicSamples)
{
    System sys(hw::MachineConfig::corei7_920(), 1, quietCosts());
    auto module = std::make_unique<KLebModule>();
    KLebModule *mod = module.get();
    sys.kernel().loadModule(std::move(module), "/dev/kleb");

    // ~7.5 ms of work.
    FixedWorkSource src = computeSource(40, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);

    KLebConfig cfg;
    cfg.targetPid = target->pid();
    cfg.events = {hw::HwEvent::instRetired,
                  hw::HwEvent::branchRetired};
    cfg.timerPeriod = 100_us;

    ManualController ctrl(mod, cfg, &target);
    Process *svc = sys.kernel().createService("c", &ctrl, 1);
    sys.kernel().startProcess(svc);
    sys.run();

    EXPECT_EQ(ctrl.configRc, 0);
    EXPECT_EQ(ctrl.startRc, 0);
    EXPECT_TRUE(ctrl.finished);
    // ~75 timer samples plus the final snapshot.
    EXPECT_GT(ctrl.samples.size(), 60u);
    EXPECT_LT(ctrl.samples.size(), 90u);
    EXPECT_EQ(ctrl.samples.back().cause, SampleCause::final);

    // Counts are cumulative and monotonic; the final value is the
    // exact user-mode total.
    std::uint64_t prev = 0;
    for (const Sample &s : ctrl.samples) {
        EXPECT_EQ(s.numEvents, 2);
        EXPECT_GE(s.counts[0], prev);
        prev = s.counts[0];
    }
    EXPECT_EQ(ctrl.samples.back().counts[0], 40000000u);
    EXPECT_EQ(ctrl.samples.back().counts[1], 40 * 125000u);
}

TEST(KLebModule, TimestampsRoughlyPeriodic)
{
    System sys(hw::MachineConfig::corei7_920(), 2, quietCosts());
    auto module = std::make_unique<KLebModule>();
    KLebModule *mod = module.get();
    sys.kernel().loadModule(std::move(module), "/dev/kleb");

    FixedWorkSource src = computeSource(40, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);

    KLebConfig cfg;
    cfg.targetPid = target->pid();
    cfg.events = {hw::HwEvent::instRetired};
    cfg.timerPeriod = 500_us;

    ManualController ctrl(mod, cfg, &target);
    Process *svc = sys.kernel().createService("c", &ctrl, 1);
    sys.kernel().startProcess(svc);
    sys.run();

    ASSERT_GT(ctrl.samples.size(), 5u);
    for (std::size_t i = 1; i + 1 < ctrl.samples.size(); ++i) {
        Tick gap = ctrl.samples[i].timestamp -
                   ctrl.samples[i - 1].timestamp;
        EXPECT_GE(gap, 450_us);
        EXPECT_LE(gap, 600_us);
    }
}

TEST(KLebModule, IsolationExcludesOtherProcesses)
{
    System sys(hw::MachineConfig::corei7_920(), 3, quietCosts());
    auto module = std::make_unique<KLebModule>();
    KLebModule *mod = module.get();
    sys.kernel().loadModule(std::move(module), "/dev/kleb");

    // Two workloads share core 0; only one is monitored.
    FixedWorkSource src_t = computeSource(20, 1000000, 2.0);
    FixedWorkSource src_o = computeSource(20, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src_t, 0);
    Process *other = sys.kernel().createWorkload("o", &src_o, 0);
    sys.kernel().startProcess(other);

    KLebConfig cfg;
    cfg.targetPid = target->pid();
    cfg.events = {hw::HwEvent::instRetired};
    cfg.timerPeriod = 200_us;

    ManualController ctrl(mod, cfg, &target);
    Process *svc = sys.kernel().createService("c", &ctrl, 1);
    sys.kernel().startProcess(svc);
    sys.run();

    // The final count equals the monitored process's instructions
    // exactly: the co-runner leaked nothing into the counters.
    ASSERT_FALSE(ctrl.samples.empty());
    EXPECT_EQ(ctrl.samples.back().counts[0], 20000000u);
}

TEST(KLebModule, DescendantTracing)
{
    System sys(hw::MachineConfig::corei7_920(), 4, quietCosts());
    auto module = std::make_unique<KLebModule>();
    KLebModule *mod = module.get();
    sys.kernel().loadModule(std::move(module), "/dev/kleb");

    FixedWorkSource parent_src = computeSource(5, 1000000, 2.0);
    Process *parent =
        sys.kernel().createWorkload("parent", &parent_src, 0);

    KLebConfig cfg;
    cfg.targetPid = parent->pid();
    cfg.events = {hw::HwEvent::instRetired};
    cfg.timerPeriod = 100_us;
    cfg.traceChildren = true;

    ManualController ctrl(mod, cfg, &parent);
    Process *svc = sys.kernel().createService("c", &ctrl, 1);
    sys.kernel().startProcess(svc);

    // A child created mid-run must be counted as well... create it
    // up-front as a ready sibling (child of parent) on the same
    // core; counters must cover both processes' user instructions.
    FixedWorkSource child_src = computeSource(5, 1000000, 2.0);
    Process *child = sys.kernel().createWorkload(
        "child", &child_src, 0, parent->pid());
    sys.kernel().onExit(parent->pid(), [&] {
        // Parent done; child keeps running while still monitored.
    });
    sys.kernel().startProcess(child);

    sys.run();
    ASSERT_FALSE(ctrl.samples.empty());
    // Monitoring stops when the *target* (parent) exits; by then
    // the child ran interleaved on the same core, so the counters
    // saw more than the parent's own instructions.
    EXPECT_GT(ctrl.samples.back().counts[0], 5000000u);
    EXPECT_LE(ctrl.samples.back().counts[0], 10000000u);
}

namespace
{

/** Drives config/start, then a mid-run SET_PERIOD, then a drain. */
class SetPeriodController : public ServiceBehavior
{
  public:
    SetPeriodController(KLebModule *module, KLebConfig cfg,
                        Process **target_slot, Tick new_period)
        : module_(module), cfg_(std::move(cfg)),
          targetSlot_(target_slot), newPeriod_(new_period)
    {
    }

    ServiceOp
    nextOp(Kernel &, Process &) override
    {
        switch (step_++) {
          case 0:
            return ServiceOp::makeSyscall(
                [this](Kernel &k, Process &me) {
                    EXPECT_EQ(module_->ioctl(k, me, ioc::config,
                                             &cfg_),
                              0);
                });
          case 1:
            return ServiceOp::makeSyscall(
                [this](Kernel &k, Process &me) {
                    EXPECT_EQ(module_->ioctl(k, me, ioc::start,
                                             nullptr),
                              0);
                    module_->setWakeTarget(&me);
                    if (*targetSlot_)
                        k.startProcess(*targetSlot_);
                });
          case 2:
            return ServiceOp::makeSleep(3500_us);
          case 3:
            return ServiceOp::makeSyscall(
                [this](Kernel &k, Process &me) {
                    changedAt = k.now();
                    setRc = module_->ioctl(
                        k, me, ioc::setPeriod, &newPeriod_);
                });
          case 4:
            return ServiceOp::makeSleep(200_ms); // woken on finish
          case 5:
            return ServiceOp::makeSyscall(
                [this](Kernel &k, Process &me) {
                    DrainRequest req;
                    req.out = &samples;
                    EXPECT_GE(module_->read(k, me, &req, 0), 0);
                });
          default:
            return ServiceOp::makeExit();
        }
    }

    KLebModule *module_;
    KLebConfig cfg_;
    Process **targetSlot_;
    Tick newPeriod_;
    int step_ = 0;
    long setRc = -99;
    Tick changedAt = 0;
    std::vector<Sample> samples;
};

} // namespace

TEST(KLebModule, SetPeriodValidation)
{
    System sys(hw::MachineConfig::corei7_920(), 3, quietCosts());
    auto module = std::make_unique<KLebModule>();
    KLebModule *mod = module.get();
    sys.kernel().loadModule(std::move(module), "/dev/kleb");

    struct Probe : public ServiceBehavior
    {
        KLebModule *mod;
        long beforeConfig = -99, nullArg = -99, zeroPeriod = -99;
        int step = 0;
        explicit Probe(KLebModule *m) : mod(m) {}
        ServiceOp
        nextOp(Kernel &, Process &) override
        {
            if (step++ > 0)
                return ServiceOp::makeExit();
            return ServiceOp::makeSyscall(
                [this](Kernel &k, Process &me) {
                    Tick period = usToTicks(100);
                    beforeConfig = mod->ioctl(
                        k, me, ioc::setPeriod, &period);
                    nullArg = mod->ioctl(k, me, ioc::setPeriod,
                                         nullptr);
                    Tick zero = 0;
                    zeroPeriod = mod->ioctl(
                        k, me, ioc::setPeriod, &zero);
                });
        }
    } probe(mod);

    Process *svc = sys.kernel().createService("p", &probe, 0);
    sys.kernel().startProcess(svc);
    sys.run();
    EXPECT_EQ(probe.beforeConfig, err::einval);
    EXPECT_EQ(probe.nullArg, err::einval);
    EXPECT_EQ(probe.zeroPeriod, err::einval);
    EXPECT_EQ(mod->status().periodChanges, 0u);
}

TEST(KLebModule, SetPeriodReprogramsLiveTimer)
{
    System sys(hw::MachineConfig::corei7_920(), 9, quietCosts());
    auto module = std::make_unique<KLebModule>();
    KLebModule *mod = module.get();
    sys.kernel().loadModule(std::move(module), "/dev/kleb");

    FixedWorkSource src = computeSource(30, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);
    KLebConfig cfg;
    cfg.targetPid = target->pid();
    cfg.events = {hw::HwEvent::instRetired};
    cfg.timerPeriod = 1_ms;
    SetPeriodController ctrl(mod, cfg, &target, 100_us);
    Process *svc = sys.kernel().createService("c", &ctrl, 1);
    sys.kernel().startProcess(svc);
    sys.run();

    EXPECT_EQ(ctrl.setRc, 0);
    KLebStatus st = mod->status();
    EXPECT_EQ(st.currentPeriod, 100_us);
    EXPECT_EQ(st.periodChanges, 1u);

    // Timer samples before the reprogram are ~1 ms apart, after it
    // ~100 us apart — and no sample is lost or duplicated across
    // the switch (timestamps strictly increase).
    std::size_t before = 0, after = 0;
    for (std::size_t i = 1; i < ctrl.samples.size(); ++i) {
        const Sample &prev = ctrl.samples[i - 1];
        const Sample &cur = ctrl.samples[i];
        ASSERT_LT(prev.timestamp, cur.timestamp);
        if (cur.cause != SampleCause::timer)
            continue;
        Tick delta = cur.timestamp - prev.timestamp;
        if (cur.timestamp <= ctrl.changedAt) {
            ++before;
            EXPECT_GT(delta, 800_us);
        } else if (prev.timestamp > ctrl.changedAt) {
            ++after;
            EXPECT_LT(delta, 200_us);
        }
    }
    EXPECT_GE(before, 1u);
    EXPECT_GE(after, 5u);
}

TEST(KLebModule, StatusReflectsLifecycle)
{
    System sys(hw::MachineConfig::corei7_920(), 5, quietCosts());
    auto module = std::make_unique<KLebModule>();
    KLebModule *mod = module.get();
    sys.kernel().loadModule(std::move(module), "/dev/kleb");

    KLebStatus st = mod->status();
    EXPECT_FALSE(st.monitoring);

    FixedWorkSource src = computeSource(10, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);
    KLebConfig cfg;
    cfg.targetPid = target->pid();
    cfg.events = {hw::HwEvent::instRetired};
    cfg.timerPeriod = 100_us;
    ManualController ctrl(mod, cfg, &target);
    Process *svc = sys.kernel().createService("c", &ctrl, 1);
    sys.kernel().startProcess(svc);

    sys.run(1_ms);
    st = mod->status();
    EXPECT_TRUE(st.monitoring);
    EXPECT_TRUE(st.targetAlive);
    EXPECT_GT(st.samplesRecorded, 0u);

    sys.run();
    st = mod->status();
    EXPECT_FALSE(st.monitoring);
    EXPECT_FALSE(st.targetAlive);
    EXPECT_EQ(st.samplesDropped, 0u);
}

namespace
{

/** What one runDrain() call drained, and where the module ended. */
struct DrainRun
{
    std::vector<Sample> samples;
    std::vector<std::size_t> reads;
    KLebStatus status{};
};

/**
 * ~7.5 ms of target work on core 0, sampled every 100 us, with the
 * controller on core 1 reading at @p max once the target has exited.
 * @p faults is a fault-plan spec (the hotplug keys of
 * tests/fault/test_smp_chaos.cc); empty runs fault-free.
 */
DrainRun
runDrain(std::size_t max, const std::string &faults = "")
{
    System sys(hw::MachineConfig::corei7_920(), 11, quietCosts());
    fault::FaultPlan plan;
    std::string err;
    EXPECT_TRUE(fault::FaultPlan::parse(faults, &plan, &err)) << err;
    fault::FaultInjector injector(plan, 11);
    injector.attach(sys);

    auto module = std::make_unique<KLebModule>();
    KLebModule *mod = module.get();
    sys.kernel().loadModule(std::move(module), "/dev/kleb");

    FixedWorkSource src = computeSource(40, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);
    KLebConfig cfg;
    cfg.targetPid = target->pid();
    cfg.events = {hw::HwEvent::instRetired,
                  hw::HwEvent::branchRetired};
    cfg.timerPeriod = 100_us;

    ManualController ctrl(mod, cfg, &target, max);
    Process *svc = sys.kernel().createService("c", &ctrl, 1);
    sys.kernel().startProcess(svc);
    injector.scheduleCpuHotplug(sys);
    sys.run();

    EXPECT_TRUE(ctrl.finished);
    return {ctrl.samples, ctrl.reads, mod->status()};
}

/** Field-by-field equality of two drained logs. */
void
expectSameSamples(const std::vector<Sample> &got,
                  const std::vector<Sample> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "sample " << i);
        EXPECT_EQ(got[i].timestamp, want[i].timestamp);
        EXPECT_EQ(got[i].cause, want[i].cause);
        EXPECT_EQ(got[i].core, want[i].core);
        EXPECT_EQ(got[i].numEvents, want[i].numEvents);
        EXPECT_EQ(got[i].counts, want[i].counts);
    }
}

/** Every read but the last returned exactly @p max, the last 1..max. */
void
expectBoundedReads(const std::vector<std::size_t> &reads,
                   std::size_t max)
{
    ASSERT_FALSE(reads.empty());
    for (std::size_t r = 0; r + 1 < reads.size(); ++r)
        EXPECT_EQ(reads[r], max) << "read " << r;
    EXPECT_GE(reads.back(), 1u);
    EXPECT_LE(reads.back(), max);
}

} // namespace

TEST(KLebModule, BoundedReadsMatchOneUnboundedRead)
{
    DrainRun bounded = runDrain(3);
    DrainRun whole = runDrain(0);

    ASSERT_EQ(whole.reads.size(), 1u);
    EXPECT_GT(whole.samples.size(), 60u);
    expectBoundedReads(bounded.reads, 3);
    expectSameSamples(bounded.samples, whole.samples);
    EXPECT_EQ(bounded.samples.back().cause, SampleCause::final);
    EXPECT_EQ(bounded.status.pendingSamples, 0u);
    EXPECT_EQ(whole.status.pendingSamples, 0u);
}

TEST(KLebModule, BoundedReadsMergeSpillAndRingInTimestampOrder)
{
    // Core 0 goes offline at 2 ms: its ring is quiesced into the
    // spill queue and the target moves on, filling a second core's
    // ring, so the reads start with samples in the spill queue and
    // a ring at once.  Core 0 comes back online exactly at one of
    // the second core's timer samples, which ties the coreOnline
    // marker (spill queue) with that sample (ring).
    const std::string offline = "cpu.offline=2ms;cpu.offline.core=0";
    DrainRun probe = runDrain(0, offline);
    Tick tie = 0;
    int seen = 0;
    for (const Sample &s : probe.samples)
        if (s.cause == SampleCause::timer && s.core != 0 &&
            ++seen == 20) {
            tie = s.timestamp;
            break;
        }
    ASSERT_NE(tie, 0u);

    const std::string faults =
        offline + ";cpu.online=" + std::to_string(tie);
    DrainRun bounded = runDrain(3, faults);
    DrainRun whole = runDrain(0, faults);

    EXPECT_GE(bounded.status.samplesMigrated, 1u);
    EXPECT_EQ(bounded.status.coreMarkers, 2u);
    expectBoundedReads(bounded.reads, 3);
    expectSameSamples(bounded.samples, whole.samples);
    EXPECT_EQ(bounded.status.pendingSamples, 0u);

    for (std::size_t i = 1; i < bounded.samples.size(); ++i)
        EXPECT_LE(bounded.samples[i - 1].timestamp,
                  bounded.samples[i].timestamp)
            << "sample " << i;

    // On the tie the spill queue's marker drains first.
    std::size_t at = 0;
    while (at < bounded.samples.size() &&
           bounded.samples[at].timestamp != tie)
        ++at;
    ASSERT_LT(at + 1, bounded.samples.size());
    EXPECT_EQ(bounded.samples[at].cause, SampleCause::coreOnline);
    EXPECT_EQ(bounded.samples[at + 1].timestamp, tie);
    EXPECT_EQ(bounded.samples[at + 1].cause, SampleCause::timer);
    EXPECT_NE(bounded.samples[at + 1].core, 0u);
}
