#include <gtest/gtest.h>

#include <vector>

#include "kernel/system.hh"
#include "kleb/session.hh"
#include "workload/matmul.hh"
#include "workload/microbench.hh"

using namespace klebsim;
using namespace klebsim::kernel;
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

} // namespace

TEST(Session, EndToEndMonitoring)
{
    System sys(hw::MachineConfig::corei7_920(), 1, quietCosts());
    FixedWorkSource src = computeSource(40, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);

    kleb::Session::Options opts;
    opts.events = {hw::HwEvent::instRetired,
                   hw::HwEvent::branchRetired};
    opts.period = 100_us;
    opts.idealTimer = true;
    kleb::Session session(sys, opts);
    session.monitor(target);
    sys.run();

    EXPECT_EQ(target->state(), ProcState::zombie);
    EXPECT_TRUE(session.finished());
    EXPECT_GT(session.samples().size(), 50u);

    // The controller drained everything the module recorded.
    kleb::KLebStatus st = session.status();
    EXPECT_EQ(st.pendingSamples, 0u);
    EXPECT_EQ(st.samplesDropped, 0u);
    EXPECT_EQ(session.samples().size(), st.samplesRecorded);

    // Final totals are the exact user-mode instruction count.
    hw::EventVector totals = session.finalTotals();
    EXPECT_EQ(at(totals, hw::HwEvent::instRetired), 40000000u);
}

TEST(Session, SeriesShapes)
{
    System sys(hw::MachineConfig::corei7_920(), 2, quietCosts());
    FixedWorkSource src = computeSource(20, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);

    kleb::Session::Options opts;
    opts.events = {hw::HwEvent::instRetired,
                   hw::HwEvent::coreCycles};
    opts.period = 200_us;
    opts.idealTimer = true;
    kleb::Session session(sys, opts);
    session.monitor(target);
    sys.run();

    stats::TimeSeries cumulative = session.series();
    ASSERT_GT(cumulative.size(), 5u);
    EXPECT_EQ(cumulative.channels(), 2u);
    EXPECT_EQ(cumulative.channelNames()[0], "INST_RETIRED");

    // Cumulative is monotonic; deltas sum back to the total.
    auto inst = cumulative.channel(0);
    for (std::size_t i = 1; i < inst.size(); ++i)
        EXPECT_GE(inst[i], inst[i - 1]);

    stats::TimeSeries deltas = session.deltaSeries();
    EXPECT_EQ(deltas.size(), cumulative.size());
    double sum = deltas.channelSum(0);
    EXPECT_DOUBLE_EQ(sum, inst.back());
}

TEST(Session, MonitoringFromFirstInstruction)
{
    System sys(hw::MachineConfig::corei7_920(), 3, quietCosts());
    FixedWorkSource src = computeSource(5, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);

    kleb::Session session(sys, kleb::Session::Options{});
    session.monitor(target);
    EXPECT_EQ(target->state(), ProcState::created); // not yet
    sys.run();
    // Every instruction was captured: nothing ran before START.
    hw::EventVector totals = session.finalTotals();
    EXPECT_EQ(at(totals, hw::HwEvent::instRetired), 5000000u);
}

TEST(Session, FinalTotalsMatchUnmonitoredRunAcrossEventSets)
{
    // Eight events on a four-counter PMU take one run per set.  The
    // simulator is deterministic, so each monitored run's final
    // totals equal an unmonitored same-seed run's exact counts for
    // every architectural event of its set.
    constexpr std::uint64_t seed = 1;
    constexpr Addr base = 0x100000000ULL;
    auto matmul = [](System &sys) {
        return workload::makeMatMulLoop({256}, base,
                                        sys.forkRng(0x5e9 + seed));
    };

    System truth_sys(hw::MachineConfig::corei7_920(), seed,
                     quietCosts());
    auto truth_wl = matmul(truth_sys);
    Process *p =
        truth_sys.kernel().createWorkload("t", truth_wl.get(), 0);
    truth_sys.kernel().startProcess(p);
    truth_sys.run();
    const hw::EventVector &truth = p->execContext()->totalEvents();
    EXPECT_GT(at(truth, hw::HwEvent::instRetired), 0u);
    EXPECT_GT(at(truth, hw::HwEvent::arithMul), 0u);

    const std::vector<std::vector<hw::HwEvent>> sets = {
        {hw::HwEvent::instRetired, hw::HwEvent::branchRetired,
         hw::HwEvent::loadRetired, hw::HwEvent::storeRetired},
        {hw::HwEvent::arithMul, hw::HwEvent::fpOpsRetired,
         hw::HwEvent::llcReference, hw::HwEvent::llcMiss},
    };
    std::size_t checked = 0;
    for (const std::vector<hw::HwEvent> &events : sets) {
        System sys(hw::MachineConfig::corei7_920(), seed,
                   quietCosts());
        auto wl = matmul(sys);
        Process *target =
            sys.kernel().createWorkload("target", wl.get(), 0);
        kleb::Session::Options opts;
        opts.events = events;
        opts.period = 1_ms;
        kleb::Session session(sys, opts);
        session.monitor(target);
        sys.run();
        ASSERT_EQ(target->state(), ProcState::zombie);

        hw::EventVector totals = session.finalTotals();
        for (hw::HwEvent ev : events) {
            // The cache events depend on the monitor's own
            // footprint; only retired-work events must match.
            if (ev == hw::HwEvent::llcReference ||
                ev == hw::HwEvent::llcMiss)
                continue;
            EXPECT_EQ(at(totals, ev), at(truth, ev))
                << hw::eventName(ev);
            ++checked;
        }
    }
    EXPECT_EQ(checked, 6u);
}

TEST(Session, ControllerOnSameCoreInterferes)
{
    // Baseline on core 1 (no monitoring).
    System sys(hw::MachineConfig::corei7_920(), 4, quietCosts());
    FixedWorkSource src_base = computeSource(40, 1000000, 2.0);
    Process *base =
        sys.kernel().createWorkload("base", &src_base, 1);
    sys.kernel().startProcess(base);

    FixedWorkSource src_mon = computeSource(40, 1000000, 2.0);
    Process *mon = sys.kernel().createWorkload("mon", &src_mon, 0);
    kleb::Session::Options opts;
    opts.period = 100_us;
    kleb::Session session(sys, opts);
    session.monitor(mon);
    sys.run();

    // Monitoring costs something but not much.
    EXPECT_GT(mon->lifetime(), base->lifetime());
    double overhead =
        (static_cast<double>(mon->lifetime()) -
         static_cast<double>(base->lifetime())) /
        static_cast<double>(base->lifetime());
    EXPECT_LT(overhead, 0.40);
}

TEST(Session, TraceChildrenOff)
{
    System sys(hw::MachineConfig::corei7_920(), 5, quietCosts());
    FixedWorkSource parent_src = computeSource(10, 1000000, 2.0);
    Process *parent =
        sys.kernel().createWorkload("p", &parent_src, 0);
    FixedWorkSource child_src = computeSource(10, 1000000, 2.0);
    Process *child = sys.kernel().createWorkload("c", &child_src,
                                                 0, parent->pid());

    kleb::Session::Options opts;
    opts.traceChildren = false;
    opts.period = 100_us;
    kleb::Session session(sys, opts);
    session.monitor(parent);
    sys.kernel().startProcess(child);
    sys.run();

    hw::EventVector totals = session.finalTotals();
    // Only the parent's instructions: children excluded.
    EXPECT_EQ(at(totals, hw::HwEvent::instRetired), 10000000u);
}

TEST(Session, MultipleSessionsDistinctDevices)
{
    System sys(hw::MachineConfig::corei7_920(), 6, quietCosts());
    kleb::Session a(sys, kleb::Session::Options{});
    kleb::Session b(sys, kleb::Session::Options{});
    EXPECT_NE(a.module(), b.module());
}

TEST(Session, DestructorUnloadsModuleExactlyOnce)
{
    // The controller never rmmods: after a clean run the module is
    // still loaded with the controller dead.  The session
    // destructor must reclaim it — exactly once.
    System sys(hw::MachineConfig::corei7_920(), 8, quietCosts());
    FixedWorkSource src = computeSource(5, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);

    int unloads = 0;
    std::string path;
    int hook = sys.kernel().registerModuleHook(
        [&unloads, &path](KernelModule &, const std::string &p,
                          bool loaded) {
            if (!loaded && p == path)
                ++unloads;
        });
    {
        kleb::Session::Options opts;
        opts.period = 100_us;
        kleb::Session session(sys, opts);
        path = session.devPath();
        session.monitor(target);
        sys.run();
        ASSERT_TRUE(session.finished());
        ASSERT_NE(session.module(), nullptr);
        EXPECT_EQ(unloads, 0);
    }
    EXPECT_EQ(unloads, 1);
    EXPECT_EQ(sys.kernel().moduleAt(path), nullptr);
    sys.kernel().unregisterModuleHook(hook);
}

TEST(Session, NoDoubleRmmodAfterExternalUnload)
{
    // Regression: if something else already rmmod'ed our module
    // (the sequential runner, a test, a whole-machine teardown),
    // the destructor must not unload a second time — the path may
    // by then host a different module, or nothing at all.
    System sys(hw::MachineConfig::corei7_920(), 9, quietCosts());
    FixedWorkSource src = computeSource(5, 1000000, 2.0);
    Process *target = sys.kernel().createWorkload("t", &src, 0);

    int unloads = 0;
    std::string path;
    int hook = sys.kernel().registerModuleHook(
        [&unloads, &path](KernelModule &, const std::string &p,
                          bool loaded) {
            if (!loaded && p == path)
                ++unloads;
        });
    {
        kleb::Session::Options opts;
        opts.period = 100_us;
        kleb::Session session(sys, opts);
        path = session.devPath();
        session.monitor(target);
        sys.run();
        ASSERT_TRUE(session.finished());

        sys.kernel().unloadModule(path);
        EXPECT_EQ(unloads, 1);
        EXPECT_EQ(session.module(), nullptr);
        // Status stays answerable off the unload-time snapshot.
        EXPECT_GT(session.status().samplesRecorded, 0u);
    }
    // The destructor did not rmmod again.
    EXPECT_EQ(unloads, 1);
    sys.kernel().unregisterModuleHook(hook);
}
