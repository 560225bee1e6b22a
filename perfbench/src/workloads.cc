#include "workloads.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "analysis/invariants.hh"
#include "base/str.hh"
#include "bench_support/trial_pool.hh"
#include "fleet/fleet.hh"
#include "hw/perf_event.hh"
#include "kernel/system.hh"
#include "kleb/session.hh"
#include "stats/time_series.hh"
#include "tools/harness.hh"
#include "tools/instrumented.hh"
#include "tools/perf.hh"
#include "workload/docker.hh"
#include "workload/matmul.hh"

namespace perfbench
{

using namespace klebsim;

namespace
{

/**
 * What the traced run reads around one simulated machine: event
 * dispatches, host time inside timer-expiry events (from a timer's
 * dispatch to the next dispatch), and every cache's lookups.
 */
class MachineProbe final : public sim::EventQueueListener
{
  public:
    std::uint64_t events = 0;
    double timerSec = 0;
    std::uint64_t l1 = 0, l2 = 0, llc = 0, llcMisses = 0;

    void
    onDispatch(const sim::Event &ev, Tick now) override
    {
        (void)now;
        ++events;
        const bool timer = ev.priority() == sim::Event::timerPriority;
        if (!inTimer_ && !timer)
            return;
        const Clock::time_point t = Clock::now();
        if (inTimer_)
            timerSec += seconds(timerStart_, t);
        inTimer_ = timer;
        timerStart_ = t;
    }

    /** Close the last timer interval and read the caches. */
    void
    finish(kernel::System &sys)
    {
        if (inTimer_)
            timerSec += seconds(timerStart_, Clock::now());
        inTimer_ = false;
        for (CoreId c = 0; c < sys.config().numCores; ++c) {
            l1 += sys.core(c).mem().l1().stats().accesses();
            l2 += sys.core(c).mem().l2().stats().accesses();
        }
        llc += sys.llc().stats().accesses();
        llcMisses += sys.llc().stats().misses;
    }

    std::uint64_t lookups() const { return l1 + l2 + llc; }

  private:
    bool inTimer_ = false;
    Clock::time_point timerStart_{};
};

/** Layer values every single-machine-per-trial workload reports. */
void
machineLayers(Layers &l, const Tracer &t, std::size_t from,
              const std::vector<MachineProbe> &probes)
{
    double events = 0, timer = 0, l1 = 0, l2 = 0, llc = 0, miss = 0;
    for (const MachineProbe &p : probes) {
        events += static_cast<double>(p.events);
        timer += p.timerSec;
        l1 += static_cast<double>(p.l1);
        l2 += static_cast<double>(p.l2);
        llc += static_cast<double>(p.llc);
        miss += static_cast<double>(p.llcMisses);
    }
    const double run_s = t.total("kernel.run", from);
    l["sim.events"] = events;
    l["sim.timer_ms"] = timer * 1e3;
    l["hw.lookups.l1"] = l1;
    l["hw.lookups.l2"] = l2;
    l["hw.lookups.llc"] = llc;
    l["hw.llc_miss_ratio"] = llc > 0 ? miss / llc : 0;
    l["hw.ns_per_lookup"] = run_s * 1e9 / std::max(1.0, l1 + l2 + llc);
    l["kernel.run_s"] = run_s;
    l["kernel.system_new_ms.i7"] =
        t.perOpMedian("kernel.System.i7", from) * 1e3;
    l["kernel.system_new_ms.xeon"] =
        t.perOpMedian("kernel.System.xeon", from) * 1e3;
    l["workload.make_ms"] = t.perOpMedian("workload.make", from) * 1e3;
    l["kleb.attach_ms"] = t.perOpMedian("kleb.attach", from) * 1e3;
    l["kleb.collect_ms"] = t.perOpMedian("kleb.collect", from) * 1e3;
}

std::string
joinCounts(const std::vector<std::uint64_t> &v)
{
    std::string out;
    for (std::uint64_t x : v) {
        if (!out.empty())
            out += ',';
        out += std::to_string(x);
    }
    return out;
}

// ---------------------------------------------------------------
// matmul-tools: Table II

/** Table II at table2_matmul_overhead's --quick size. */
constexpr std::uint32_t matmulN = 640;

/**
 * Set-up runs one round of each workload at reduced size, so that
 * the first timed round finds the host warm (code paged in, heap
 * grown, pool threads spawned).  Each is about 1/16 of a round.
 */
constexpr std::uint32_t warmUpMatmulN = matmulN * 2 / 5;

/** Where tools::runOnce() maps the workload's data region. */
constexpr Addr workloadBase = 0x100000000ULL;

/** The paper's Table II overheads (%), in allTools() order. */
constexpr double paperOverheadPct[] = {0.0, 0.68, 6.01, 1.65, 6.43, 4.08};

const char *
toolKey(tools::ToolKind kind)
{
    switch (kind) {
      case tools::ToolKind::none:
        return "none";
      case tools::ToolKind::kleb:
        return "kleb";
      case tools::ToolKind::perfStat:
        return "perf_stat";
      case tools::ToolKind::perfRecord:
        return "perf_record";
      case tools::ToolKind::papi:
        return "papi";
      case tools::ToolKind::limit:
        return "limit";
    }
    return "?";
}

/**
 * tools::runOnce() for the benchmark's configurations (fault-free,
 * fixed-rate, unsupervised, no durable log) one level down: the
 * same calls in the same order, with a span around each layer's.
 */
tools::RunResult
tracedRunOnce(const tools::RunConfig &cfg, Tracer *tr, int op,
              MachineProbe &probe)
{
    using tools::ToolKind;
    tools::RunResult result;
    result.tool = cfg.tool;
    ScopedSpan trial(tr, std::string("trial.") + toolKey(cfg.tool), op);

    std::optional<kernel::System> sys;
    {
        ScopedSpan s(tr, "kernel.System.i7", op);
        sys.emplace(cfg.machine, cfg.seed, cfg.costs);
    }
    sys->eq().addListener(&probe);

    Random wl_rng = sys->forkRng(0x3141 + cfg.seed);
    std::unique_ptr<hw::WorkSource> workload;
    {
        ScopedSpan s(tr, "workload.make", op);
        workload = cfg.workloadFactory(workloadBase, wl_rng);
    }

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
    std::unique_ptr<tools::PerfStatSession> stat_session;
    std::unique_ptr<tools::PerfRecordSession> record_session;
    std::unique_ptr<tools::InstrumentedToolSession> instr_session;
    hw::WorkSource *source = workload.get();

    if (cfg.tool == ToolKind::papi || cfg.tool == ToolKind::limit) {
        ScopedSpan s(tr, "tools.attach", op);
        auto options =
            cfg.tool == ToolKind::papi
                ? tools::InstrumentedToolSession::papi(every)
                : tools::InstrumentedToolSession::limit(
                      every, cfg.limitPatchAvailable);
        options.events = cfg.events;
        options.countKernel = cfg.countKernel;
        if (!options.supported) {
            result.supported = false;
            return result;
        }
        instr_session = std::make_unique<tools::InstrumentedToolSession>(
            *sys, options);
        source = instr_session->wrap(source);
    }

    kernel::Process *target =
        sys->kernel().createWorkload("target", source, cfg.core);

    switch (cfg.tool) {
      case ToolKind::none:
        sys->kernel().startProcess(target);
        break;
      case ToolKind::kleb: {
        ScopedSpan s(tr, "kleb.attach", op);
        kleb::Session::Options opts;
        opts.events = cfg.events;
        opts.period = cfg.period;
        opts.countKernel = cfg.countKernel;
        opts.idealTimer = cfg.idealTimer;
        kleb_session = std::make_unique<kleb::Session>(*sys, opts);
        kleb_session->monitor(target);
        break;
      }
      case ToolKind::perfStat: {
        ScopedSpan s(tr, "tools.attach", op);
        tools::PerfStatSession::Options opts;
        opts.events = cfg.events;
        opts.interval = cfg.period;
        opts.countKernel = cfg.countKernel;
        stat_session =
            std::make_unique<tools::PerfStatSession>(*sys, opts);
        stat_session->profile(target);
        break;
      }
      case ToolKind::perfRecord: {
        ScopedSpan s(tr, "tools.attach", op);
        tools::PerfRecordSession::Options opts;
        opts.events = cfg.events;
        opts.countKernel = cfg.countKernel;
        record_session =
            std::make_unique<tools::PerfRecordSession>(*sys, opts);
        record_session->profile(target);
        break;
      }
      case ToolKind::papi:
      case ToolKind::limit: {
        ScopedSpan s(tr, "tools.attach", op);
        instr_session->profile(target);
        break;
      }
    }

    {
        ScopedSpan s(tr, "kernel.run", op);
        sys->run(cfg.simLimit);
    }
    probe.finish(*sys);
    sys->eq().removeListener(&probe);
    if (target->state() != kernel::ProcState::zombie)
        throw std::runtime_error("workload hit the simulation limit");

    result.lifetime = target->exitTick();
    result.seconds = ticksToSec(result.lifetime);
    result.trueTotals = target->execContext()->totalEvents();
    result.flops = target->execContext()->flopsDone();
    result.contextSwitches = sys->kernel().contextSwitches();

    switch (cfg.tool) {
      case ToolKind::none:
        break;
      case ToolKind::kleb: {
        ScopedSpan s(tr, "kleb.collect", op);
        const hw::EventVector totals = kleb_session->finalTotals();
        for (hw::HwEvent ev : cfg.events)
            result.totals.push_back(at(totals, ev));
        result.samples = kleb_session->samples().size();
        result.series = kleb_session->series();
        result.klebStatus = kleb_session->status();
        result.klebAborted = kleb_session->aborted();
        result.klebRetries = kleb_session->retries();
        result.klebLoadAttempts = kleb_session->loadAttempts();
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

class MatmulTools final : public Workload
{
  public:
    MatmulTools(std::uint64_t seed, std::uint32_t n)
    {
        // As table2_matmul_overhead's makeConfig(quick).
        tools::RunConfig base;
        base.period = msToTicks(10);
        base.expectedInstructions = static_cast<std::uint64_t>(
            workload::matmulFlops({n}) / 2.0 * 8.0);
        base.expectedLifetime = msToTicks(650);
        base.workloadFactory = [n](Addr at, Random rng) {
            return workload::makeMatMulLoop({n}, at, rng);
        };
        // One trial per tool, seeded as table2's first trial is.
        for (tools::ToolKind tool : tools::allTools()) {
            tools::RunConfig cfg = base;
            cfg.tool = tool;
            cfg.seed =
                bench::trialSeed(seed, static_cast<std::uint64_t>(tool), 0);
            configs_.push_back(cfg);
        }
    }

    unsigned poolWidth() const override { return 1; }

    void
    run(Tracer *tracer) override
    {
        tracer_ = tracer;
        from_ = tracer ? tracer->spans().size() : 0;
        results_.assign(configs_.size(), {});
        errors_.assign(configs_.size(), {});
        probes_.assign(configs_.size(), {});
        for (std::size_t i = 0; i < configs_.size(); ++i) {
            try {
                results_[i] =
                    tracer ? tracedRunOnce(configs_[i], tracer,
                                           static_cast<int>(i),
                                           probes_[i])
                           : tools::runOnce(configs_[i]);
            } catch (const std::exception &e) {
                errors_[i] = e.what();
            }
        }
    }

    Outcome
    verify(Layers *layers) override
    {
        // Operation i is tool allTools()[i]; 0 is the baseline.
        Outcome out(configs_.size());
        for (std::size_t i = 0; i < configs_.size(); ++i) {
            const tools::RunResult &r = results_[i];
            const char *key = toolKey(configs_[i].tool);
            if (!errors_[i].empty())
                out.fail(i, errors_[i]);
            else if (!r.supported)
                out.fail(i, std::string(key) + " reported unsupported");
            out.add(std::string("trial.") + key,
                    digestOf(csprintf("lifetime=%llu samples=%zu "
                                      "totals=%s",
                                      (unsigned long long)r.lifetime,
                                      r.samples,
                                      joinCounts(r.totals).c_str())),
                    i, i + 1);
        }

        // Claim: K-LEB has the lowest Table II overhead of the five
        // tools.  A tool that beats it fails both tools' trials.
        const double base = results_[0].seconds;
        overheadPct_.assign(results_.size(), 0);
        for (std::size_t t = 1; t < results_.size(); ++t)
            overheadPct_[t] =
                base > 0 ? (results_[t].seconds / base - 1) * 100 : 0;
        const std::size_t kleb = 1;
        for (std::size_t t = 2; t < results_.size(); ++t) {
            if (overheadPct_[kleb] < overheadPct_[t])
                continue;
            const std::string why = csprintf(
                "K-LEB overhead %.3f%% is not below %s's %.3f%%",
                overheadPct_[kleb], tools::toolName(tools::allTools()[t]),
                overheadPct_[t]);
            out.fail(kleb, why);
            out.fail(t, why);
        }

        if (layers)
            fillLayers(*layers);
        return out;
    }

    std::vector<std::string>
    notes() const override
    {
        std::vector<std::string> lines;
        for (std::size_t t = 1; t < overheadPct_.size(); ++t)
            lines.push_back(csprintf(
                "table2 %-11s overhead %6.2f%%  paper %5.2f%%  "
                "sim-paper %+6.2f pp",
                tools::toolName(tools::allTools()[t]), overheadPct_[t],
                paperOverheadPct[t],
                overheadPct_[t] - paperOverheadPct[t]));
        return lines;
    }

  private:
    void
    fillLayers(Layers &l) const
    {
        machineLayers(l, *tracer_, from_, probes_);
        double minst = 0, ctx = 0, samples = 0, dropped = 0;
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const tools::RunResult &r = results_[i];
            minst += static_cast<double>(
                         at(r.trueTotals, hw::HwEvent::instRetired)) /
                     1e6;
            ctx += static_cast<double>(r.contextSwitches);
            if (configs_[i].tool == tools::ToolKind::kleb) {
                samples += static_cast<double>(r.samples);
                dropped +=
                    static_cast<double>(r.klebStatus.samplesDropped);
            }
        }
        l["workload.sim_minst"] = minst;
        l["kernel.ctx_switches"] = ctx;
        l["kleb.samples"] = samples;
        l["kleb.dropped"] = dropped;
        l["hw.ns_per_lookup.i7"] = l["hw.ns_per_lookup"];
        l["tools.attach_ms"] =
            tracer_->perOpMedian("tools.attach", from_) * 1e3;
        for (tools::ToolKind tool : tools::allTools())
            l[std::string("tools.trial_s.") + toolKey(tool)] =
                tracer_->total(std::string("trial.") + toolKey(tool),
                               from_);
    }

    std::vector<tools::RunConfig> configs_;
    std::vector<tools::RunResult> results_;
    std::vector<std::string> errors_;
    std::vector<MachineProbe> probes_;
    std::vector<double> overheadPct_;
    Tracer *tracer_ = nullptr;
    std::size_t from_ = 0;
};

// ---------------------------------------------------------------
// docker-mpki: Fig. 5

/** Fig. 5 at fig5_docker_mpki's full size. */
constexpr std::uint64_t dockerInstructions = 400000000ULL;
constexpr std::uint64_t warmUpDockerInstructions = dockerInstructions / 16;

/** Where fig5_docker_mpki maps a container's data region. */
constexpr Addr containerBase = 0x200000000ULL;

struct ImageResult
{
    hw::EventVector totals{};
    std::size_t samples = 0;
    std::uint64_t dropped = 0;
    std::uint64_t trueInst = 0;
    std::uint64_t contextSwitches = 0;
    bool finished = false;
};

/**
 * One Fig. 5 measurement, composed as fig5_docker_mpki's
 * measureImage(): the image launched as a container (shim +
 * entrypoint) under K-LEB at 1 ms.
 */
ImageResult
runImage(const hw::MachineConfig &machine, const char *machine_key,
         const workload::DockerImageSpec &spec, std::uint64_t instructions,
         std::uint64_t seed, Tracer *tr, int op, MachineProbe *probe)
{
    ScopedSpan trial(tr, "trial", op);
    std::optional<kernel::System> sys;
    {
        ScopedSpan s(tr, std::string("kernel.System.") + machine_key, op);
        sys.emplace(machine, seed);
    }
    if (probe)
        sys->eq().addListener(probe);

    workload::DockerImageSpec scaled = spec;
    scaled.instructions = instructions;
    std::unique_ptr<workload::Container> container;
    {
        ScopedSpan s(tr, "workload.make", op);
        container = workload::launchContainer(
            sys->kernel(), scaled, 0, containerBase, sys->forkRng(seed));
    }

    kleb::Session::Options opts;
    opts.events = {hw::HwEvent::instRetired, hw::HwEvent::llcMiss,
                   hw::HwEvent::llcReference};
    opts.period = msToTicks(1);
    opts.controllerCore = 1;
    std::optional<kleb::Session> session;
    {
        ScopedSpan s(tr, "kleb.attach", op);
        session.emplace(*sys, opts);
        session->monitor(container->shim, false);
    }
    {
        ScopedSpan s(tr, "kernel.run", op);
        sys->run();
    }
    if (probe) {
        probe->finish(*sys);
        sys->eq().removeListener(probe);
    }

    ImageResult r;
    {
        ScopedSpan s(tr, "kleb.collect", op);
        r.totals = session->finalTotals();
        r.samples = session->samples().size();
        r.dropped = session->status().samplesDropped;
    }
    kernel::Process *entry = container->entry;
    r.finished = container->shim->state() == kernel::ProcState::zombie &&
                 entry && entry->state() == kernel::ProcState::zombie;
    if (entry)
        r.trueInst = at(entry->execContext()->totalEvents(),
                        hw::HwEvent::instRetired);
    r.contextSwitches = sys->kernel().contextSwitches();
    return r;
}

class DockerMpki final : public Workload
{
  public:
    DockerMpki(std::uint64_t seed, std::uint64_t instructions)
        : seed_(seed), instructions_(instructions)
    {
    }

    unsigned poolWidth() const override { return 1; }

    /** Operation 2i runs image i on the i7-920, 2i+1 on the Xeon. */
    void
    run(Tracer *tracer) override
    {
        tracer_ = tracer;
        from_ = tracer ? tracer->spans().size() : 0;
        const auto &catalog = workload::dockerCatalog();
        const std::size_t ops = catalog.size() * 2;
        results_.assign(ops, {});
        errors_.assign(ops, {});
        probes_.assign(ops, {});
        for (std::size_t k = 0; k < ops; ++k) {
            const bool xeon = k % 2 == 1;
            try {
                results_[k] = runImage(
                    xeon ? hw::MachineConfig::xeon8259cl()
                         : hw::MachineConfig::corei7_920(),
                    xeon ? "xeon" : "i7", catalog[k / 2], instructions_,
                    seed_, tracer,
                    static_cast<int>(k), tracer ? &probes_[k] : nullptr);
            } catch (const std::exception &e) {
                errors_[k] = e.what();
            }
        }
    }

    Outcome
    verify(Layers *layers) override
    {
        const auto &catalog = workload::dockerCatalog();
        Outcome out(results_.size());
        std::vector<double> mpki(results_.size());
        for (std::size_t k = 0; k < results_.size(); ++k) {
            const ImageResult &r = results_[k];
            const auto &spec = catalog[k / 2];
            const char *machine = k % 2 ? "xeon" : "i7";
            if (!errors_[k].empty())
                out.fail(k, errors_[k]);
            else if (!r.finished)
                out.fail(k, "container did not finish");
            const std::uint64_t inst =
                at(r.totals, hw::HwEvent::instRetired);
            const std::uint64_t miss = at(r.totals, hw::HwEvent::llcMiss);
            out.add(csprintf("kleb.%s.%s", spec.name.c_str(), machine),
                    digestOf(csprintf(
                        "inst=%llu llc_miss=%llu llc_ref=%llu",
                        (unsigned long long)inst, (unsigned long long)miss,
                        (unsigned long long)at(
                            r.totals, hw::HwEvent::llcReference))),
                    k, k + 1);
            mpki[k] = stats::mpki(static_cast<double>(miss),
                                  static_cast<double>(inst));
            // Claim: the paper's class (MPKI above 10 is
            // memory-intensive) on both machines.
            if ((mpki[k] > workload::memoryIntensiveMpki) !=
                spec.expectMemoryIntensive)
                out.fail(k, csprintf("%s on %s: MPKI %.2f is in the "
                                     "wrong class",
                                     spec.name.c_str(), machine,
                                     mpki[k]));
        }

        // Claim: the images rank the same by MPKI on both machines
        // (the paper's AWS re-run).
        std::vector<std::size_t> by_i7(catalog.size()),
            by_xeon(catalog.size());
        for (std::size_t s = 0; s < catalog.size(); ++s)
            by_i7[s] = by_xeon[s] = s;
        std::sort(by_i7.begin(), by_i7.end(), [&](auto a, auto b) {
            return mpki[2 * a] < mpki[2 * b];
        });
        std::sort(by_xeon.begin(), by_xeon.end(), [&](auto a, auto b) {
            return mpki[2 * a + 1] < mpki[2 * b + 1];
        });
        for (std::size_t pos = 0; pos < catalog.size(); ++pos) {
            if (by_i7[pos] == by_xeon[pos])
                continue;
            for (std::size_t s : {by_i7[pos], by_xeon[pos]}) {
                const std::string why = csprintf(
                    "%s ranks differently by MPKI on the two machines",
                    catalog[s].name.c_str());
                out.fail(2 * s, why);
                out.fail(2 * s + 1, why);
            }
        }

        if (layers)
            fillLayers(*layers);
        return out;
    }

  private:
    void
    fillLayers(Layers &l) const
    {
        machineLayers(l, *tracer_, from_, probes_);
        double minst = 0, ctx = 0, samples = 0, dropped = 0;
        for (const ImageResult &r : results_) {
            minst += static_cast<double>(r.trueInst) / 1e6;
            ctx += static_cast<double>(r.contextSwitches);
            samples += static_cast<double>(r.samples);
            dropped += static_cast<double>(r.dropped);
        }
        l["workload.sim_minst"] = minst;
        l["kernel.ctx_switches"] = ctx;
        l["kleb.samples"] = samples;
        l["kleb.dropped"] = dropped;

        // Host ns per cache lookup, split by machine: the Xeon's LLC
        // has a non-power-of-two set count, the i7-920's does not.
        const std::vector<double> run_s =
            tracer_->perOp("kernel.run", results_.size(), from_);
        double secs[2] = {0, 0}, lookups[2] = {0, 0};
        for (std::size_t k = 0; k < results_.size(); ++k) {
            secs[k % 2] += run_s[k];
            lookups[k % 2] += static_cast<double>(probes_[k].lookups());
        }
        l["hw.ns_per_lookup.i7"] = secs[0] * 1e9 / std::max(1.0, lookups[0]);
        l["hw.ns_per_lookup.xeon"] =
            secs[1] * 1e9 / std::max(1.0, lookups[1]);
    }

    std::uint64_t seed_;
    std::uint64_t instructions_;
    std::vector<ImageResult> results_;
    std::vector<std::string> errors_;
    std::vector<MachineProbe> probes_;
    Tracer *tracer_ = nullptr;
    std::size_t from_ = 0;
};

// ---------------------------------------------------------------
// fleet-chaos: the fleet under every fleet fault point

constexpr std::uint32_t fleetMachines = 1536;
constexpr std::uint32_t warmUpFleetMachines = fleetMachines / 16;
constexpr unsigned fleetWidth = 2;
constexpr const char *fleetPlan =
    "machine.crash=0.2;link.drop=0.05;link.delay=0.1;"
    "link.delay.by=500us;collector.crash=1ms";

class FleetChaos final : public Workload
{
  public:
    FleetChaos(std::uint64_t seed, std::uint32_t machines)
    {
        cfg_.machines = machines;
        cfg_.coresPerMachine = 1;
        cfg_.rackSize = 64;
        cfg_.seed = seed;
        cfg_.jobs = fleetWidth;
        cfg_.faultSpec = fleetPlan;
        fault::FaultPlan plan;
        std::string err;
        if (!fault::FaultPlan::parse(cfg_.faultSpec, &plan, &err))
            throw std::invalid_argument("fleet plan: " + err);
    }

    unsigned poolWidth() const override { return fleetWidth; }

    void
    run(Tracer *tracer) override
    {
        tracer_ = tracer;
        from_ = tracer ? tracer->spans().size() : 0;
        result_ = tracer ? tracedRunFleet(*tracer) : fleet::runFleet(cfg_);
    }

    Outcome
    verify(Layers *layers) override
    {
        const fleet::FleetResult &r = result_;
        const std::size_t n = cfg_.machines;
        Outcome out(n);
        if (r.accounts.size() != n) {
            out.failAll("fleet returned a ledger per machine count "
                        "other than the fleet size");
            return out;
        }
        // The CSV is rendered from the ledgers, holes and tree, so
        // the traced run, which stops short of rendering it, checks
        // those instead.
        if (!tracer_)
            out.add("fleet.csv", r.csvDigest, 0, n);
        out.add("fleet.tree", r.treeDigest, 0, n);

        analysis::InvariantChecker checker;
        checker.checkFleetBalance(r, "fleet-chaos");
        if (!checker.ok())
            out.failAll(checker.violations().front());

        faults_ = {};
        std::uint64_t produced = 0, kept = 0;
        for (std::size_t m = 0; m < n; ++m) {
            const fleet::MachineAccount &a = r.accounts[m];
            out.add(csprintf("ledger.m%04zu", m),
                    digestOf(csprintf(
                        "produced=%llu sent=%llu kept=%llu dropped=%llu "
                        "vanished=%llu quarantined=%llu delayed=%llu "
                        "crashed=%d sim_failed=%d is_quarantined=%d",
                        (unsigned long long)a.produced,
                        (unsigned long long)a.sent,
                        (unsigned long long)a.kept,
                        (unsigned long long)a.dropped,
                        (unsigned long long)a.vanished,
                        (unsigned long long)a.quarantined,
                        (unsigned long long)a.delayed, a.crashed,
                        a.simFailed, a.isQuarantined)),
                    m, m + 1);
            if (a.simFailed)
                out.fail(m, "machine simulation died");
            if (a.kept + a.dropped + a.vanished + a.quarantined !=
                a.produced)
                out.fail(m, "ledger does not balance");
            if (a.crashed && a.vanished == 0)
                out.fail(m, "crashed machine shows no vanished tail");
            faults_.crashes += a.crashed ? 1 : 0;
            faults_.drops += a.dropped;
            faults_.delays += a.delayed;
            produced += a.produced;
            kept += a.kept;
        }
        faults_.restarts = r.collector.restarts;
        faults_.replayed = r.collector.replayedRecords;

        // Chaos must fire: a planned fault that never fired fails
        // the whole run's operations.
        const std::pair<const char *, std::uint64_t> fired[] = {
            {"machine.crash", faults_.crashes},
            {"link.drop", faults_.drops},
            {"link.delay", faults_.delays},
            {"collector.crash", faults_.restarts}};
        for (const auto &[point, count] : fired)
            if (count == 0)
                out.failAll(std::string("planned fault ") + point +
                            " fired zero times");

        if (layers) {
            Layers &l = *layers;
            l["fleet.simulate_s"] =
                tracer_->total("fleet.simulateMachines", from_);
            l["fleet.simulate_parallelism"] =
                parallelism(simulateCpu_, l["fleet.simulate_s"]);
            l["fleet.sort_ms"] = tracer_->total("fleet.sort", from_) * 1e3;
            l["fleet.collect_ms"] =
                (tracer_->total("fleet.Collector.ingest", from_) +
                 tracer_->total("fleet.Collector.finish", from_)) *
                1e3;
            l["fleet.deliveries"] = static_cast<double>(deliveries_);
            l["fleet.replayed"] = static_cast<double>(faults_.replayed);
            l["fleet.journal_mb"] = static_cast<double>(journalBytes_) / 1e6;
            l["fleet.kept_frac"] =
                produced ? static_cast<double>(kept) /
                               static_cast<double>(produced)
                         : 0;
            l["fault.machine_crashes"] = static_cast<double>(faults_.crashes);
            l["fault.link_drops"] = static_cast<double>(faults_.drops);
            l["fault.link_delays"] = static_cast<double>(faults_.delays);
            l["fault.collector_restarts"] =
                static_cast<double>(faults_.restarts);
            l["fault.injected"] = static_cast<double>(
                faults_.crashes + faults_.drops + faults_.delays +
                faults_.restarts);
        }
        return out;
    }

    std::vector<std::string>
    notes() const override
    {
        return {csprintf(
            "fleet faults: %llu machine crashes, %llu link drops, %llu "
            "link delays, %llu collector restarts replaying %llu records",
            (unsigned long long)faults_.crashes,
            (unsigned long long)faults_.drops,
            (unsigned long long)faults_.delays,
            (unsigned long long)faults_.restarts,
            (unsigned long long)faults_.replayed)};
    }

  private:
    /**
     * fleet::runFleet() one level down: the machine phase, the
     * Phase-3 sort and the collector, in runFleet's order, with a
     * span around each.  It stops before rendering the CSV.
     */
    fleet::FleetResult
    tracedRunFleet(Tracer &tr)
    {
        ScopedSpan round(&tr, "fleet.round");
        fleet::FleetResult result;
        std::string err;
        if (!fault::FaultPlan::parse(cfg_.faultSpec, &result.plan, &err))
            throw std::invalid_argument("fleet plan: " + err);
        const fault::FaultPlan &plan = result.plan;

        bench::TrialPool pool(cfg_.jobs);
        std::vector<fleet::MachineShardResult> shards;
        {
            const double cpu0 = processCpuSeconds();
            ScopedSpan s(&tr, "fleet.simulateMachines");
            shards = fleet::simulateMachines(cfg_, plan, pool,
                                             &result.simFailures);
            simulateCpu_ = processCpuSeconds() - cpu0;
        }

        result.accounts.resize(cfg_.machines);
        std::size_t total = 0;
        for (const fleet::MachineShardResult &s : shards)
            total += s.deliveries.size();
        std::vector<fleet::Delivery> deliveries;
        deliveries.reserve(total);
        for (fleet::MachineId m = 0; m < cfg_.machines; ++m) {
            result.accounts[m] = shards[m].account;
            deliveries.insert(deliveries.end(),
                              shards[m].deliveries.begin(),
                              shards[m].deliveries.end());
        }
        {
            ScopedSpan s(&tr, "fleet.sort");
            std::sort(deliveries.begin(), deliveries.end(),
                      fleet::deliveryBefore);
        }

        fleet::CollectorConfig ccfg;
        ccfg.machines = cfg_.machines;
        ccfg.coresPerMachine = cfg_.coresPerMachine;
        ccfg.rackSize = cfg_.rackSize;
        ccfg.heartbeatTimeout = cfg_.heartbeatTimeout;
        ccfg.probeBudget = cfg_.probeBudget;
        ccfg.drainCost = cfg_.drainCost;
        ccfg.backpressureLag = cfg_.backpressureLag;
        ccfg.checkpointEvery = cfg_.checkpointEvery;
        ccfg.crashAt = plan.collectorCrashAt;

        fleet::Collector collector(ccfg);
        {
            ScopedSpan s(&tr, "fleet.Collector.ingest");
            collector.ingest(deliveries);
        }
        {
            ScopedSpan s(&tr, "fleet.Collector.finish");
            const Tick last =
                deliveries.empty() ? 0 : deliveries.back().arrival;
            collector.finish(last + collector.quarantineAfter() + 1);
        }

        for (fleet::MachineId m = 0; m < cfg_.machines; ++m) {
            const fleet::PeerState &p = collector.peer(m);
            fleet::MachineAccount &acct = result.accounts[m];
            acct.kept = p.kept;
            acct.vanished += p.reordered;
            acct.quarantined = p.lateDiscarded;
            acct.isQuarantined = p.quarantined;
            result.aggregateAccounted += acct.kept + acct.dropped +
                                         acct.vanished + acct.quarantined;
        }
        result.collector = collector.stats();
        result.holes = collector.holes();
        result.tree = collector.tree();
        result.treeDigest = result.tree.digest();
        deliveries_ = deliveries.size();
        journalBytes_ = collector.journal().bytes().size();
        return result;
    }

    struct Faults
    {
        std::uint64_t crashes = 0, drops = 0, delays = 0, restarts = 0,
                      replayed = 0;
    };

    fleet::FleetConfig cfg_;
    fleet::FleetResult result_;
    Faults faults_;
    double simulateCpu_ = 0;
    std::size_t deliveries_ = 0;
    std::size_t journalBytes_ = 0;
    Tracer *tracer_ = nullptr;
    std::size_t from_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    std::unique_ptr<Workload> wl, warm_up;
    if (name == "matmul-tools") {
        wl = std::make_unique<MatmulTools>(seed, matmulN);
        warm_up = std::make_unique<MatmulTools>(seed, warmUpMatmulN);
    } else if (name == "docker-mpki") {
        wl = std::make_unique<DockerMpki>(seed, dockerInstructions);
        warm_up = std::make_unique<DockerMpki>(seed, warmUpDockerInstructions);
    } else if (name == "fleet-chaos") {
        wl = std::make_unique<FleetChaos>(seed, fleetMachines);
        warm_up = std::make_unique<FleetChaos>(seed, warmUpFleetMachines);
    } else {
        return nullptr;
    }
    warm_up->run(nullptr);
    return wl;
}

} // namespace perfbench
