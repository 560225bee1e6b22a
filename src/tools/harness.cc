#include "harness.hh"

#include <stdexcept>

#include "base/logging.hh"
#include "fault/fault_injector.hh"
#include "hw/perf_event.hh"
#include "instrumented.hh"
#include "kernel/system.hh"
#include "kleb/session.hh"
#include "perf.hh"

namespace klebsim::tools
{

namespace
{

/** Workload data regions live here in each run's address space. */
constexpr Addr workloadBase = 0x100000000ULL;

} // anonymous namespace

const char *
toolName(ToolKind kind)
{
    switch (kind) {
      case ToolKind::none:
        return "no-profiling";
      case ToolKind::kleb:
        return "K-LEB";
      case ToolKind::perfStat:
        return "perf stat";
      case ToolKind::perfRecord:
        return "perf record";
      case ToolKind::papi:
        return "PAPI";
      case ToolKind::limit:
        return "LiMiT";
    }
    return "?";
}

const std::vector<ToolKind> &
allTools()
{
    static const std::vector<ToolKind> tools = {
        ToolKind::none, ToolKind::kleb, ToolKind::perfStat,
        ToolKind::perfRecord, ToolKind::papi, ToolKind::limit};
    return tools;
}

RunResult
runOnce(const RunConfig &cfg)
{
    panic_if(!cfg.workloadFactory, "RunConfig without a workload");

    RunResult result;
    result.tool = cfg.tool;

    kernel::System sys(cfg.machine, cfg.seed, cfg.costs);

    std::unique_ptr<fault::FaultInjector> injector;
    if (!cfg.faultSpec.empty()) {
        fault::FaultPlan plan;
        std::string err;
        if (!fault::FaultPlan::parse(cfg.faultSpec, &plan, &err))
            throw std::runtime_error("bad fault spec: " + err);
        injector = std::make_unique<fault::FaultInjector>(
            plan, cfg.seed);
        injector->attach(sys);
    }

    Random wl_rng = sys.forkRng(0x3141 + cfg.seed);
    std::unique_ptr<hw::WorkSource> workload =
        cfg.workloadFactory(workloadBase, wl_rng);

    // Read-point spacing: match the sample count a timer-based tool
    // would collect over the expected lifetime (paper section V).
    std::uint64_t every = cfg.instrumentEveryInstr;
    if (every == 0) {
        double expected_samples =
            static_cast<double>(cfg.expectedLifetime) /
            static_cast<double>(cfg.period);
        if (expected_samples < 1.0)
            expected_samples = 1.0;
        every = static_cast<std::uint64_t>(
            static_cast<double>(cfg.expectedInstructions) /
            expected_samples);
        if (every == 0)
            every = 1;
    }

    std::unique_ptr<kleb::Session> kleb_session;
    std::unique_ptr<PerfStatSession> stat_session;
    std::unique_ptr<PerfRecordSession> record_session;
    std::unique_ptr<InstrumentedToolSession> instr_session;

    hw::WorkSource *source = workload.get();

    // Instrumented tools must wrap the source before the process
    // exists.
    if (cfg.tool == ToolKind::papi || cfg.tool == ToolKind::limit) {
        auto options =
            cfg.tool == ToolKind::papi
                ? InstrumentedToolSession::papi(every)
                : InstrumentedToolSession::limit(
                      every, cfg.limitPatchAvailable);
        options.events = cfg.events;
        options.countKernel = cfg.countKernel;
        if (!options.supported) {
            result.supported = false;
            return result;
        }
        instr_session = std::make_unique<InstrumentedToolSession>(
            sys, options);
        source = instr_session->wrap(source);
    }

    kernel::Process *target = sys.kernel().createWorkload(
        "target", source, cfg.core);

    switch (cfg.tool) {
      case ToolKind::none:
        sys.kernel().startProcess(target);
        break;

      case ToolKind::kleb: {
        kleb::Session::Options opts;
        opts.events = cfg.events;
        opts.period = cfg.period;
        opts.countKernel = cfg.countKernel;
        opts.idealTimer = cfg.idealTimer;
        opts.durableLog = cfg.durableLog || cfg.supervise;
        opts.supervise = cfg.supervise;
        if (cfg.heartbeatTimeout > 0)
            opts.supervisorTuning.heartbeatTimeout =
                cfg.heartbeatTimeout;
        opts.adaptive = cfg.adaptive;
        if (cfg.overheadBudget > 0)
            opts.governor.budget = cfg.overheadBudget;
        if (injector) {
            opts.controllerTuning.setPeriodFaultHook =
                injector->setPeriodFailHook();
            opts.controllerTuning.reprogramHook =
                injector->reprogramCrashHook(sys);
            opts.controllerTuning.drainStallHook =
                injector->readerStallHook();
            opts.controllerTuning.hangHook =
                injector->controllerHangHook(sys);
        }
        kleb_session =
            std::make_unique<kleb::Session>(sys, opts);
        kleb_session->monitor(target);
        if (injector)
            injector->scheduleControllerCrash(
                sys, kleb_session->controllerProcess());
        break;
      }

      case ToolKind::perfStat: {
        PerfStatSession::Options opts;
        opts.events = cfg.events;
        opts.interval = cfg.period;
        opts.countKernel = cfg.countKernel;
        stat_session =
            std::make_unique<PerfStatSession>(sys, opts);
        stat_session->profile(target);
        break;
      }

      case ToolKind::perfRecord: {
        PerfRecordSession::Options opts;
        opts.events = cfg.events;
        opts.countKernel = cfg.countKernel;
        record_session =
            std::make_unique<PerfRecordSession>(sys, opts);
        record_session->profile(target);
        break;
      }

      case ToolKind::papi:
      case ToolKind::limit:
        instr_session->profile(target);
        break;
    }

    if (injector) {
        injector->scheduleTargetCrash(sys, target);
        injector->scheduleCpuHotplug(sys);
        injector->scheduleTaskMigration(sys, target);
    }

    sys.run(cfg.simLimit);
    if (target->state() != kernel::ProcState::zombie)
        throw std::runtime_error(
            "workload did not finish within the simulation limit");
    if (injector)
        result.faultsInjected = injector->totalInjected();

    // The paper times the whole profiled execution ("time perf stat
    // ./prog"), so tool setup that delays the program's start is
    // part of the measured run time.
    result.lifetime = target->exitTick();
    result.seconds = ticksToSec(result.lifetime);
    result.trueTotals = target->execContext()->totalEvents();
    result.flops = target->execContext()->flopsDone();
    result.contextSwitches = sys.kernel().contextSwitches();

    switch (cfg.tool) {
      case ToolKind::none:
        break;
      case ToolKind::kleb: {
        const hw::EventVector totals = kleb_session->finalTotals();
        for (hw::HwEvent ev : cfg.events)
            result.totals.push_back(at(totals, ev));
        result.samples = kleb_session->samples().size();
        result.series = kleb_session->series();
        result.klebStatus = kleb_session->status();
        result.klebAborted = kleb_session->aborted();
        result.klebRetries = kleb_session->retries();
        result.klebLoadAttempts = kleb_session->loadAttempts();
        result.supervisor = kleb_session->supervisorStats();
        if (const kleb::DurableLog *dlog =
                kleb_session->durableLog()) {
            // Crash recovery runs over a copy of the medium so the
            // post-run corruption faults (torn tail, bitflips)
            // never touch the live session state.
            std::vector<std::uint8_t> medium = dlog->bytes();
            if (injector)
                injector->corruptLog(medium,
                                     kleb::DurableLog::headerSize);
            result.recovered = kleb::LogRecovery::scan(medium);
        }
        break;
      }
      case ToolKind::perfStat:
        result.totals = stat_session->totals();
        result.samples = stat_session->samples().size();
        result.series = stat_session->series();
        break;
      case ToolKind::perfRecord:
        result.totals = record_session->totals();
        result.samples = record_session->samples().size();
        result.series = record_session->series();
        break;
      case ToolKind::papi:
      case ToolKind::limit:
        result.totals = instr_session->totals();
        result.samples = instr_session->readPoints();
        break;
    }

    return result;
}

double
overheadPct(const std::vector<double> &tool_secs,
            const std::vector<double> &baseline_secs)
{
    panic_if(tool_secs.empty() || baseline_secs.empty(),
             "overheadPct with empty samples");
    auto mean = [](const std::vector<double> &v) {
        double sum = 0;
        for (double x : v)
            sum += x;
        return sum / static_cast<double>(v.size());
    };
    double base = mean(baseline_secs);
    return (mean(tool_secs) - base) / base * 100.0;
}

} // namespace klebsim::tools
