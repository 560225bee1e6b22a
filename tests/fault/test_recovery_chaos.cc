#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/determinism.hh"
#include "analysis/event_trace.hh"
#include "analysis/invariants.hh"
#include "fault/fault_injector.hh"
#include "kernel/system.hh"
#include "kleb/durable_log.hh"
#include "kleb/log_recovery.hh"
#include "kleb/session.hh"
#include "tools/harness.hh"
#include "workload/linpack.hh"
#include "workload/microbench.hh"

using namespace klebsim;
using namespace klebsim::kernel;
using namespace klebsim::ticks_literals;
using analysis::DeterminismHarness;
using analysis::DeterminismReport;
using analysis::EventTrace;
using analysis::Observation;
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

/** Fast supervision: sub-millisecond detection, short backoff. */
void
fastSupervision(kleb::Session::Options &o)
{
    o.supervise = true;
    // Dedicated core: on the target's core a CPU-bound workload
    // delays every drain wakeup by a scheduler quantum (~2 ms), so
    // heartbeats would arrive slower than this timeout and healthy
    // controllers would be killed as stale.
    o.controllerCore = 1;
    o.controllerTuning.drainInterval = usToTicks(500);
    o.supervisorTuning.pollInterval = usToTicks(500);
    o.supervisorTuning.heartbeatTimeout = msToTicks(2);
    o.supervisorTuning.restartBackoff = usToTicks(100);
}

/** Everything a recovery scenario can be asserted on afterwards. */
struct RecoveryOutcome
{
    std::vector<kleb::Sample> samples;   //!< merged in-memory log
    std::vector<std::uint8_t> medium;    //!< post-corruption image
    kleb::RecoveredLog rec;              //!< scan of `medium`
    std::optional<stats::TimeSeries> recovered;
    kleb::SupervisorStats sup{};
    std::size_t incarnations = 0;
    bool finished = false;
    bool aborted = false;
    bool targetDone = false;
    std::uint64_t targetInstructions = 0;
    Tick targetExit = 0;
    Tick finalTick = 0;
    std::string injections;
    std::vector<std::string> violations;
};

/**
 * Run one workload under a *supervised* K-LEB session with the
 * given fault spec, capture the durable log, corrupt it per the
 * plan's log.* keys, scan + splice it back, and invariant-check
 * the whole outcome (sample log, recovered series, supervision
 * accounting).
 */
RecoveryOutcome
runSupervised(const std::string &spec, std::uint64_t seed,
              const std::function<void(kleb::Session::Options &)>
                  &mutate = nullptr,
              int mega_instructions = 40)
{
    System sys(hw::MachineConfig::corei7_920(), seed, quietCosts());
    analysis::InvariantChecker checker;
    checker.attachQueue(sys.eq());
    checker.attachKernel(sys.kernel());

    fault::FaultPlan plan;
    std::string err;
    EXPECT_TRUE(fault::FaultPlan::parse(spec, &plan, &err)) << err;
    fault::FaultInjector injector(plan, seed);
    injector.attach(sys);

    FixedWorkSource src =
        computeSource(mega_instructions, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);

    kleb::Session::Options opts;
    opts.events = {hw::HwEvent::instRetired,
                   hw::HwEvent::branchRetired};
    opts.period = 100_us;
    fastSupervision(opts);
    if (mutate)
        mutate(opts);
    opts.controllerTuning.drainStallHook = injector.readerStallHook();
    opts.controllerTuning.hangHook = injector.controllerHangHook(sys);

    kleb::Session session(sys, opts);
    session.monitor(target);
    injector.scheduleControllerCrash(sys,
                                     session.controllerProcess());
    injector.scheduleTargetCrash(sys, target);

    sys.run(secToTicks(10.0));

    RecoveryOutcome out;
    out.samples = session.samples();
    out.finished = session.finished();
    out.aborted = session.aborted();
    out.sup = session.supervisorStats();
    out.incarnations = session.incarnations();
    out.targetDone = target->state() == ProcState::zombie;
    out.targetExit = target->exitTick();
    out.targetInstructions =
        target->execContext()->instructionsRetired();
    out.finalTick = sys.now();

    // Crash-and-recover: corrupt the captured log image the way the
    // plan prescribes, then replay it through the recovery scan.
    EXPECT_NE(session.durableLog(), nullptr);
    out.medium = session.durableLog()->bytes();
    injector.corruptLog(out.medium, kleb::DurableLog::headerSize);
    out.injections = injector.injectionSummary();
    out.rec = kleb::LogRecovery::scan(out.medium);
    out.recovered = kleb::LogRecovery::splice(
        out.rec, {"inst_retired", "branch_retired"});

    checker.checkSampleLog(out.samples);
    checker.checkRecoveredSeries(*out.recovered);
    checker.checkSupervision(out.sup);
    out.violations = checker.violations();
    return out;
}

std::size_t
samplesAtOrBefore(const std::vector<kleb::Sample> &log, Tick t)
{
    std::size_t n = 0;
    for (const kleb::Sample &s : log)
        if (s.timestamp <= t)
            ++n;
    return n;
}

} // namespace

/**
 * The headline scenario: the controller crashes at 40% of a LINPACK
 * run.  The supervisor restarts it, the replacement re-attaches to
 * the still-loaded module (whose ring buffer kept collecting), and
 * the recovery scan ends with at least the pre-crash samples plus
 * post-restart samples, one explicit gap record at the journal
 * outage, and exact frame accounting.
 */
TEST(RecoveryChaos, CrashAt40PercentOfLinpackRecovers)
{
    // Sized so 40% of the run lies well past the controller's
    // first drain (arming takes ~0.5 ms, drains run every 0.5 ms):
    // the pre-crash epoch must hold journaled samples for the
    // recovery scan to bridge with a gap record.
    workload::LinpackParams params;
    params.n = 300;
    params.trials = 6;
    params.blocksPerTrial = 8;

    auto run = [&params](const std::string &spec,
                         Tick *lifetime) {
        System sys(hw::MachineConfig::corei7_920(), 11,
                   quietCosts());
        analysis::InvariantChecker checker;
        checker.attachQueue(sys.eq());
        checker.attachKernel(sys.kernel());

        fault::FaultPlan plan;
        std::string err;
        EXPECT_TRUE(fault::FaultPlan::parse(spec, &plan, &err))
            << err;
        fault::FaultInjector injector(plan, 11);
        injector.attach(sys);

        auto linpack = workload::makeLinpack(
            params, 0x100000000ULL, sys.forkRng(1));
        Process *target = sys.kernel().createWorkload(
            "linpack", linpack.get(), 0);

        kleb::Session::Options opts;
        opts.events = {hw::HwEvent::instRetired,
                       hw::HwEvent::arithMul};
        opts.period = 100_us;
        fastSupervision(opts);
        kleb::Session session(sys, opts);
        session.monitor(target);
        injector.scheduleControllerCrash(
            sys, session.controllerProcess());
        sys.run(secToTicks(10.0));

        RecoveryOutcome out;
        out.samples = session.samples();
        out.finished = session.finished();
        out.sup = session.supervisorStats();
        out.incarnations = session.incarnations();
        out.targetDone = target->state() == ProcState::zombie;
        out.targetExit = target->exitTick();
        out.medium = session.durableLog()->bytes();
        out.rec = kleb::LogRecovery::scan(out.medium);
        out.recovered = kleb::LogRecovery::splice(
            out.rec, {"inst_retired", "arith_mul"});
        checker.checkSampleLog(out.samples);
        checker.checkRecoveredSeries(*out.recovered);
        checker.checkSupervision(out.sup);
        out.violations = checker.violations();
        if (lifetime)
            *lifetime = target->exitTick();
        return out;
    };

    // Probe run: fault-free, to learn the run's natural lifetime.
    Tick lifetime = 0;
    RecoveryOutcome clean = run("", &lifetime);
    ASSERT_TRUE(clean.targetDone);
    ASSERT_GT(lifetime, 0u);
    EXPECT_EQ(clean.sup.restarts, 0u);
    EXPECT_TRUE(clean.rec.report.balanced());
    EXPECT_TRUE(clean.violations.empty())
        << clean.violations.front();

    // Crash the controller at 40% of that lifetime.
    const Tick crash_tick = lifetime * 2 / 5;
    RecoveryOutcome out = run(
        "controller.crash=" + std::to_string(crash_tick), nullptr);

    // The workload still completes, supervised end to end.
    EXPECT_TRUE(out.targetDone);
    EXPECT_TRUE(out.finished);
    EXPECT_EQ(out.incarnations, 2u);
    EXPECT_EQ(out.sup.restarts, 1u);
    EXPECT_EQ(out.sup.reattaches, 1u);
    EXPECT_EQ(out.sup.failedReattaches, 0u);
    EXPECT_GT(out.sup.totalOutage, 0u);
    EXPECT_FALSE(out.sup.budgetExhausted);

    // Recovery ends with at least every pre-crash sample plus
    // samples from after the restart.
    const std::size_t pre_crash =
        samplesAtOrBefore(clean.samples, crash_tick);
    ASSERT_GT(pre_crash, 0u);
    EXPECT_GE(out.rec.report.samplesRecovered, pre_crash);
    ASSERT_FALSE(out.rec.samples.empty());
    EXPECT_GT(out.rec.samples.back().timestamp, crash_tick);

    // One explicit gap record bridges the two epochs at the journal
    // outage, and the spliced series carries it in its gap channel.
    EXPECT_EQ(out.rec.report.epochs, 2u);
    ASSERT_EQ(out.rec.report.gaps.size(), 1u);
    EXPECT_EQ(out.rec.report.gaps[0].fromEpoch, 0u);
    EXPECT_EQ(out.rec.report.gaps[0].toEpoch, 1u);
    EXPECT_LE(out.rec.report.gaps[0].from, crash_tick);
    EXPECT_GT(out.rec.report.gaps[0].to,
              out.rec.report.gaps[0].from);
    EXPECT_EQ(out.rec.report.gapTicks,
              out.rec.report.gaps[0].to -
                  out.rec.report.gaps[0].from);

    // Exact accounting: kept + dropped + vanished == emitted.
    EXPECT_TRUE(out.rec.report.balanced());
    EXPECT_EQ(out.rec.report.framesDropped, 0u);
    EXPECT_EQ(out.rec.report.framesVanished, 0u);
    EXPECT_TRUE(out.rec.report.violations.empty())
        << out.rec.report.violations.front();
    EXPECT_TRUE(out.violations.empty()) << out.violations.front();
}

TEST(RecoveryChaos, HangDetectedKilledAndRestarted)
{
    // controller.hang wedges the drain loop without killing the
    // process: only the heartbeat timeout can spot it.  The
    // supervisor must kill and replace the zombie-in-spirit.
    RecoveryOutcome out =
        runSupervised("controller.hang=2ms", 23, nullptr, 60);

    EXPECT_TRUE(out.targetDone);
    EXPECT_GE(out.sup.kills, 1u);
    EXPECT_GE(out.sup.restarts, 1u);
    EXPECT_EQ(out.sup.reattaches, out.sup.restarts);
    EXPECT_GT(out.rec.report.samplesRecovered, 0u);
    EXPECT_TRUE(out.rec.report.balanced());
    EXPECT_NE(out.injections.find("controller.hang=1"),
              std::string::npos);
    EXPECT_TRUE(out.violations.empty()) << out.violations.front();
}

TEST(RecoveryChaos, TornTailAndBitflipsStayBalanced)
{
    // Crash mid-run, then mangle the captured log image: tear 137
    // bytes off the tail and flip 3 random bits.  Recovery must
    // stay balanced, flag the tear, and replay deterministically.
    RecoveryOutcome out = runSupervised(
        "controller.crash=8ms;log.torn_tail=137;log.bitflip=3", 31);

    EXPECT_TRUE(out.targetDone);
    EXPECT_TRUE(out.rec.report.valid);
    EXPECT_TRUE(out.rec.report.tornTail);
    EXPECT_TRUE(out.rec.report.balanced());
    EXPECT_GT(out.rec.report.framesDropped, 0u);
    EXPECT_GT(out.rec.report.samplesRecovered, 0u);
    EXPECT_NE(out.injections.find("log.torn_tail=1"),
              std::string::npos);

    // Scanning the same medium again is bit-for-bit identical.
    kleb::RecoveredLog again = kleb::LogRecovery::scan(out.medium);
    EXPECT_EQ(again.report.framesKept, out.rec.report.framesKept);
    EXPECT_EQ(again.report.framesDropped,
              out.rec.report.framesDropped);
    EXPECT_EQ(again.report.framesVanished,
              out.rec.report.framesVanished);
    EXPECT_EQ(again.samples.size(), out.rec.samples.size());
    for (std::size_t i = 0; i < again.samples.size(); ++i) {
        EXPECT_EQ(again.samples[i].timestamp,
                  out.rec.samples[i].timestamp);
        EXPECT_EQ(again.samples[i].counts,
                  out.rec.samples[i].counts);
    }
}

TEST(RecoveryChaos, RestartBudgetExhaustedDegradesCleanly)
{
    // Every read fails: each incarnation aborts its drain loop, the
    // supervisor restarts until the budget is gone, then gives up —
    // and the target still finishes.
    auto tight = [](kleb::Session::Options &o) {
        o.supervisorTuning.restartBudget = 2;
        o.bufferCapacity = 64;
    };
    RecoveryOutcome out =
        runSupervised("read.fail=1.0", 43, tight, 20);

    EXPECT_TRUE(out.targetDone);
    EXPECT_EQ(out.targetInstructions, 20000000u);
    EXPECT_TRUE(out.sup.budgetExhausted);
    EXPECT_EQ(out.sup.restarts, 2u);
    EXPECT_EQ(out.sup.reattaches + out.sup.failedReattaches,
              out.sup.restarts);
    EXPECT_TRUE(out.aborted);
    // Nothing was ever drained, so nothing was ever journaled —
    // recovery of the (epoch-frames-only) log still balances.
    EXPECT_EQ(out.rec.report.samplesRecovered, 0u);
    EXPECT_TRUE(out.rec.report.balanced());
    EXPECT_TRUE(out.violations.empty()) << out.violations.front();
}

TEST(RecoveryChaos, DurableLogAloneChangesNothing)
{
    // durableLog=true without supervision journals on the drain
    // path at zero simulated cost: the in-memory sample log must be
    // byte-identical to a plain session, and the journal replays to
    // exactly those samples.
    auto run = [](bool durable) {
        System sys(hw::MachineConfig::corei7_920(), 7,
                   quietCosts());
        FixedWorkSource src = computeSource(20, 1000000, 2.0);
        Process *target =
            sys.kernel().createWorkload("t", &src, 0);
        kleb::Session::Options opts;
        opts.events = {hw::HwEvent::instRetired,
                       hw::HwEvent::branchRetired};
        opts.period = 100_us;
        opts.durableLog = durable;
        kleb::Session session(sys, opts);
        session.monitor(target);
        sys.run();
        std::pair<std::vector<kleb::Sample>,
                  std::vector<std::uint8_t>>
            out;
        out.first = session.samples();
        if (session.durableLog())
            out.second = session.durableLog()->bytes();
        return out;
    };

    auto plain = run(false);
    auto journaled = run(true);

    ASSERT_EQ(plain.first.size(), journaled.first.size());
    for (std::size_t i = 0; i < plain.first.size(); ++i) {
        EXPECT_EQ(plain.first[i].timestamp,
                  journaled.first[i].timestamp);
        EXPECT_EQ(plain.first[i].counts, journaled.first[i].counts);
    }

    kleb::RecoveredLog rec =
        kleb::LogRecovery::scan(journaled.second);
    EXPECT_TRUE(rec.report.balanced());
    EXPECT_EQ(rec.report.epochs, 1u);
    ASSERT_EQ(rec.samples.size(), journaled.first.size());
    for (std::size_t i = 0; i < rec.samples.size(); ++i) {
        EXPECT_EQ(rec.samples[i].timestamp,
                  journaled.first[i].timestamp);
        EXPECT_EQ(rec.samples[i].counts, journaled.first[i].counts);
    }
}

/**
 * CI sweep: 16 seeds across the crash/torn-tail fault surface.
 * Every run must balance its frame accounting, pass all runtime
 * invariants, finish its workload, and replay identically.
 */
TEST(RecoveryChaos, SixteenSeedSweepBalancesAndReplays)
{
    const std::vector<std::string> specs = {
        "controller.crash=6ms",
        "controller.crash=11ms;log.torn_tail=64",
        "log.torn_tail=250",
        "controller.crash=9ms;log.bitflip=2",
    };
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        const std::string &spec = specs[seed % specs.size()];
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " spec=" + spec);
        RecoveryOutcome a = runSupervised(spec, seed, nullptr, 20);

        EXPECT_TRUE(a.targetDone);
        EXPECT_TRUE(a.rec.report.valid);
        EXPECT_TRUE(a.rec.report.balanced())
            << "kept=" << a.rec.report.framesKept
            << " dropped=" << a.rec.report.framesDropped
            << " vanished=" << a.rec.report.framesVanished
            << " emitted=" << a.rec.report.framesEmitted;
        EXPECT_TRUE(a.violations.empty()) << a.violations.front();

        RecoveryOutcome b = runSupervised(spec, seed, nullptr, 20);
        EXPECT_EQ(a.medium, b.medium);
        EXPECT_EQ(a.rec.report.samplesRecovered,
                  b.rec.report.samplesRecovered);
        EXPECT_EQ(a.sup.restarts, b.sup.restarts);
        EXPECT_EQ(a.finalTick, b.finalTick);
        EXPECT_EQ(a.injections, b.injections);
    }
}

namespace
{

/**
 * A supervised crash-and-recover session as a determinism
 * observation: every recovery-visible number (and a hash of every
 * recovered sample) folds into the counters, so the harness's
 * bit-for-bit replay check covers the full crash path.
 */
Observation
recoveryScenario(std::uint64_t tie_salt)
{
    Observation obs;
    System sys(hw::MachineConfig::corei7_920(), 3, quietCosts());
    sys.eq().setTieBreakSalt(tie_salt);

    EventTrace trace;
    sys.eq().addListener(&trace);

    fault::FaultPlan plan;
    EXPECT_TRUE(fault::FaultPlan::parse(
        "controller.crash=7ms;log.torn_tail=80;log.bitflip=2",
        &plan));
    fault::FaultInjector injector(plan, 3);
    injector.attach(sys);

    FixedWorkSource src = computeSource(20, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);

    kleb::Session::Options opts;
    opts.events = {hw::HwEvent::instRetired,
                   hw::HwEvent::branchRetired};
    opts.period = 100_us;
    fastSupervision(opts);
    kleb::Session session(sys, opts);
    session.monitor(target);
    injector.scheduleControllerCrash(sys,
                                     session.controllerProcess());
    sys.run(secToTicks(10.0));

    std::vector<std::uint8_t> medium =
        session.durableLog()->bytes();
    injector.corruptLog(medium, kleb::DurableLog::headerSize);
    kleb::RecoveredLog rec = kleb::LogRecovery::scan(medium);

    obs.counters.emplace_back("frames.kept",
                              rec.report.framesKept);
    obs.counters.emplace_back("frames.dropped",
                              rec.report.framesDropped);
    obs.counters.emplace_back("frames.vanished",
                              rec.report.framesVanished);
    obs.counters.emplace_back("gap.ticks", rec.report.gapTicks);
    obs.counters.emplace_back("restarts",
                              session.supervisorStats().restarts);
    obs.counters.emplace_back("injected",
                              injector.totalInjected());
    obs.counters.emplace_back("final.tick", sys.now());

    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const kleb::Sample &s : rec.samples) {
        h = (h ^ s.timestamp) * 0x100000001b3ULL;
        for (std::uint8_t i = 0; i < s.numEvents; ++i)
            h = (h ^ s.counts[i]) * 0x100000001b3ULL;
    }
    obs.counters.emplace_back("recovered.hash", h);

    sys.eq().removeListener(&trace);
    obs.trace = trace;
    return obs;
}

} // namespace

TEST(RecoveryChaos, CrashRecoveryReplaysBitForBit)
{
    DeterminismReport report =
        DeterminismHarness::checkReplay(recoveryScenario);
    EXPECT_TRUE(report.deterministic) << report.summary();
    EXPECT_FALSE(report.divergence.has_value()) << report.summary();
    EXPECT_TRUE(report.counterMismatches.empty())
        << report.summary();
}
