/**
 * @file
 * Per-process execution state carried across context switches.
 *
 * The CPU core prepares work (executes chunks against the cache
 * model, computing their duration and event counts) ahead of
 * attribution; attribution then replays the prepared timeline as
 * simulated time passes, so a PMU read at any tick sees exact
 * counts.  Because a process may be preempted mid-chunk and resume
 * on a later slice (or another core), the prepared-but-unattributed
 * queue lives here, with the process, not in the core.
 */

#ifndef KLEBSIM_HW_EXEC_CONTEXT_HH
#define KLEBSIM_HW_EXEC_CONTEXT_HH

#include <cstdint>
#include <deque>

#include "base/types.hh"
#include "exec_types.hh"

namespace klebsim::hw
{

class CpuCore;

/**
 * Prepared-work timeline plus retirement totals for one process.
 */
class ExecContext
{
  public:
    /** @param source the process's workload (not owned). */
    explicit ExecContext(WorkSource *source) : source_(source) {}

    /** True once the source has emitted its final chunk. */
    bool sourceDone() const { return sourceDone_; }

    /** True when no work remains to attribute. */
    bool
    exhausted() const
    {
        return sourceDone_ && queue_.empty();
    }

    /** Prepared but not yet attributed simulated time. */
    Tick preparedAhead() const { return ahead_; }

    /** Total events retired by this context so far. */
    const EventVector &totalEvents() const { return total_; }

    /** Instructions retired so far. */
    std::uint64_t
    instructionsRetired() const
    {
        return at(total_, HwEvent::instRetired);
    }

    /** Floating-point operations completed so far. */
    double flopsDone() const { return flops_; }

    /** CPU time attributed to this context so far. */
    Tick cpuTime() const { return cpuTime_; }

  private:
    friend class CpuCore;

    /** A chunk after cost modeling: fixed duration and counts. */
    struct Prepared
    {
        Tick duration = 0;
        EventVector events{};
        PrivLevel priv = PrivLevel::user;
        double flops = 0.0;
    };

    WorkSource *source_;
    std::deque<Prepared> queue_;
    Tick ahead_ = 0;

    /** @{ Partial attribution of the front chunk. */
    Tick frontAttributed_ = 0;
    EventVector frontCredited_{};
    double frontFlopsCredited_ = 0.0;
    /** @} */

    bool sourceDone_ = false;
    EventVector total_{};
    double flops_ = 0.0;
    Tick cpuTime_ = 0;
};

} // namespace klebsim::hw

#endif // KLEBSIM_HW_EXEC_CONTEXT_HH
