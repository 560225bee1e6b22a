#include <gtest/gtest.h>

#include <memory>

#include "base/str.hh"
#include "kernel/system.hh"
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

/** Sweep: number of co-scheduled workloads on one core. */
class SchedulerProperty : public ::testing::TestWithParam<int>
{
};

} // namespace

TEST_P(SchedulerProperty, AllProcessesCompleteWithExactWork)
{
    int n = GetParam();
    System sys(hw::MachineConfig::corei7_920(), 19, quietCosts());
    std::vector<std::unique_ptr<FixedWorkSource>> sources;
    std::vector<Process *> procs;
    for (int i = 0; i < n; ++i) {
        sources.push_back(std::make_unique<FixedWorkSource>(
            computeSource(8, 1000000, 2.0)));
        procs.push_back(sys.kernel().createWorkload(
            csprintf("w%d", i), sources.back().get(), 0));
        sys.kernel().startProcess(procs.back());
    }
    sys.run();
    for (Process *p : procs) {
        ASSERT_EQ(p->state(), ProcState::zombie);
        EXPECT_EQ(p->execContext()->instructionsRetired(),
                  8000000u);
    }
}

TEST_P(SchedulerProperty, CpuTimeConservation)
{
    int n = GetParam();
    System sys(hw::MachineConfig::corei7_920(), 20, quietCosts());
    std::vector<std::unique_ptr<FixedWorkSource>> sources;
    std::vector<Process *> procs;
    for (int i = 0; i < n; ++i) {
        sources.push_back(std::make_unique<FixedWorkSource>(
            computeSource(8, 1000000, 2.0)));
        procs.push_back(sys.kernel().createWorkload(
            csprintf("w%d", i), sources.back().get(), 0));
        sys.kernel().startProcess(procs.back());
    }
    sys.run();

    // Sum of per-process CPU time + kernel overhead accounts for
    // the core's busy time; no time is double-attributed or lost.
    Tick proc_cpu = 0;
    Tick last_exit = 0;
    for (Process *p : procs) {
        proc_cpu += p->execContext()->cpuTime();
        last_exit = std::max(last_exit, p->exitTick());
    }
    Tick busy = sys.core(0).busyTime();
    EXPECT_LE(proc_cpu, busy);
    // The switch away from the last exiting process is charged to
    // the core just after its exit tick.
    EXPECT_LE(busy, last_exit + 2 * quietCosts().contextSwitch);
    // Kernel overhead (switches) is bounded: < 2% of busy time
    // for these chunk sizes.
    EXPECT_LT(static_cast<double>(busy - proc_cpu),
              0.02 * static_cast<double>(busy));
}

TEST_P(SchedulerProperty, FairnessWithinTimeslice)
{
    int n = GetParam();
    if (n < 2)
        GTEST_SKIP() << "fairness needs >= 2 processes";
    System sys(hw::MachineConfig::corei7_920(), 21, quietCosts());
    std::vector<std::unique_ptr<FixedWorkSource>> sources;
    std::vector<Process *> procs;
    for (int i = 0; i < n; ++i) {
        sources.push_back(std::make_unique<FixedWorkSource>(
            computeSource(8, 1000000, 2.0)));
        procs.push_back(sys.kernel().createWorkload(
            csprintf("w%d", i), sources.back().get(), 0));
        sys.kernel().startProcess(procs.back());
    }
    sys.run();

    // Round robin: identical work means exits cluster within ~one
    // timeslice round of each other.
    Tick min_exit = maxTick, max_exit = 0;
    for (Process *p : procs) {
        min_exit = std::min(min_exit, p->exitTick());
        max_exit = std::max(max_exit, p->exitTick());
    }
    EXPECT_LE(max_exit - min_exit,
              static_cast<Tick>(n) * quietCosts().timeslice);
}

INSTANTIATE_TEST_SUITE_P(ProcessCounts, SchedulerProperty,
                         ::testing::Values(1, 2, 3, 5, 8),
                         [](const ::testing::TestParamInfo<int> &i) {
                             return csprintf("n%d", i.param);
                         });
