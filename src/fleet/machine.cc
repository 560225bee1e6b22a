#include "machine.hh"

#include <memory>
#include <string>
#include <utility>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/str.hh"
#include "bench_support/trial_pool.hh"
#include "fault/fault_plan.hh"
#include "hw/perf_event.hh"
#include "kleb/log_recovery.hh"
#include "tools/harness.hh"
#include "workload/phase_workload.hh"

namespace klebsim::fleet
{

namespace
{

/**
 * The fleet workload mix, keyed by (machine, core): a compute-bound
 * program, a cache-hostile one, and a phase-changing mix.  Sizes are
 * tuned so every variant runs for roughly nominalMachineLifetime —
 * long enough for a couple dozen samples per core, short enough
 * that a 10k-machine fleet stays a bench, not an overnight job.
 */
std::vector<workload::Phase>
mixPhases(std::uint32_t kind)
{
    using workload::MemPatternSpec;
    std::vector<workload::Phase> phases;
    switch (kind % 3) {
      case 0: { // compute-bound: high IPC, negligible MPKI
        workload::Phase p;
        p.name = "compute";
        p.instructions = 9000000;
        p.loadFrac = 0.1;
        p.storeFrac = 0.05;
        p.baseIpc = 2.2;
        p.mispredictRate = 0.01;
        p.mem = MemPatternSpec::hotCold(16 * 1024, 64 * 1024, 0.99);
        phases.push_back(p);
        break;
      }
      case 1: { // memory-bound: LLC-hostile working set
        workload::Phase p;
        p.name = "memory";
        p.instructions = 2500000;
        p.loadFrac = 0.35;
        p.storeFrac = 0.1;
        p.baseIpc = 1.4;
        p.mem = MemPatternSpec::randomUniform(24 * 1024 * 1024);
        phases.push_back(p);
        break;
      }
      default: { // mixed: compute phase then a sequential sweep
        workload::Phase a;
        a.name = "mix-compute";
        a.instructions = 4000000;
        a.loadFrac = 0.15;
        a.baseIpc = 2.0;
        a.mem = MemPatternSpec::hotCold(16 * 1024, 128 * 1024, 0.97);
        workload::Phase b;
        b.name = "mix-stream";
        b.instructions = 2000000;
        b.loadFrac = 0.3;
        b.storeFrac = 0.15;
        b.baseIpc = 1.8;
        b.stallExposureScale = 0.4;
        b.mem = MemPatternSpec::sequential(8 * 1024 * 1024);
        phases.push_back(a);
        phases.push_back(b);
        break;
      }
    }
    return phases;
}

} // anonymous namespace

MachineOutput
runMachine(const MachineParams &p)
{
    MachineOutput out;
    out.id = p.id;
    out.crashed = p.crashAt != 0;

    for (std::uint32_t core = 0; core < p.cores; ++core) {
        tools::RunConfig cfg;
        cfg.tool = tools::ToolKind::kleb;
        cfg.seed = bench::trialSeed(p.seed, p.id, core);
        cfg.events = {hw::HwEvent::instRetired,
                      hw::HwEvent::coreCycles,
                      hw::HwEvent::llcMiss};
        cfg.period = p.period;
        cfg.durableLog = true;
        const std::uint32_t kind = p.id + core;
        cfg.workloadFactory = [kind](Addr base, Random rng) {
            return std::unique_ptr<hw::WorkSource>(
                new workload::PhaseWorkload(
                    csprintf("fleet-m%u", kind), mixPhases(kind),
                    base, rng, 50000));
        };
        if (p.crashAt != 0)
            cfg.faultSpec = csprintf(
                "%s=%llu",
                fault::faultPointKey(fault::FaultPoint::targetCrash),
                (unsigned long long)p.crashAt);
        if (!p.smpFaultSpec.empty())
            cfg.faultSpec = cfg.faultSpec.empty()
                                ? p.smpFaultSpec
                                : cfg.faultSpec + ";" +
                                      p.smpFaultSpec;

        // The uplink reads the durable medium, not the in-memory
        // session: what crosses the wire is exactly what a real
        // collector could read back from the machine's journal,
        // as runOnce's recovery scan found it.
        const tools::RunResult r = tools::runOnce(cfg);
        const kleb::RecoveredLog &rec = r.recovered;
        const std::uint64_t log_lost =
            rec.report.framesDropped + rec.report.framesVanished;
        out.produced += rec.report.samplesRecovered + log_lost;
        out.vanishedLocal += log_lost;

        std::uint64_t seq = 0;
        for (std::size_t i = 0; i < rec.samples.size(); ++i) {
            const kleb::Sample &s = rec.samples[i];
            // A crashed machine dies mid-epoch: nothing at or past
            // the crash instant was ever flushed up the link, and no
            // clean-shutdown marker exists.  Those samples are the
            // vanished unsent tail.
            if (p.crashAt != 0 &&
                (s.timestamp >= p.crashAt ||
                 s.cause == kleb::SampleCause::final)) {
                ++out.vanishedLocal;
                continue;
            }
            // Hotplug markers never cross the wire: scan() already
            // routes them to coreEvents, so one showing up here
            // means the recovery contract broke — refuse to ship it
            // as a measurement.
            panic_if(kleb::isCoreMarker(s.cause),
                     "core marker leaked into recovered samples");
            WireRecord w;
            w.machine = p.id;
            w.core = static_cast<std::uint16_t>(core);
            w.epoch = rec.sampleEpochs[i];
            w.seq = seq++;
            w.ts = s.timestamp;
            w.final = s.cause == kleb::SampleCause::final;
            for (std::size_t e = 0; e < numWireEvents; ++e)
                w.counts[e] = s.counts[e];
            out.records.push_back(w);
        }
    }
    return out;
}

} // namespace klebsim::fleet
