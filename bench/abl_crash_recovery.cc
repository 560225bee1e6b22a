/**
 * @file
 * Ablation: crash-survivable monitoring (DESIGN.md section 11).
 *
 * Runs the same workload under a *supervised* K-LEB session while
 * the fault injector kills or wedges the controller at different
 * points of the run — and, post-run, tears or bit-flips the durable
 * log — then reports what the recovery scan salvages: samples
 * recovered vs. collected, frame accounting (kept / dropped /
 * vanished, which must balance against the writer's count exactly),
 * outage gap length, restart count and latency.  The fault-free row
 * is the control: supervision alone must lose nothing and leave no
 * gap.  It runs first, and each controller fault fires at a fixed
 * fraction of its measured lifetime, so every fault row injects and
 * restarts at --quick as at full size; the bench checks that
 * (injectionClaims) and exits 1 when a claim breaks.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "claims.hh"
#include "tools/harness.hh"
#include "workload/microbench.hh"

using namespace klebsim;
using namespace klebsim::bench;
using namespace klebsim::tools;
using klebsim::workload::FixedWorkSource;
using klebsim::workload::computeChunk;

namespace
{

/**
 * Lifetime of the fault-free control at full size.  A scenario's
 * controller fault fires at atMs / fullLifetimeMs of the measured
 * control lifetime: at atMs at full size, proportionally earlier at
 * --quick.
 */
constexpr double fullLifetimeMs = 38.3;

/** One faulted scenario; the fault-free control is implicit. */
struct Scenario
{
    const char *fault; //!< "crash" or "hang"
    double atMs;       //!< its instant in the full-size run
    const char *extra; //!< untimed faults appended to the spec
    const char *label; //!< label suffix naming the extra faults
};

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    const std::size_t chunks = args.quick ? 60 : 200;

    banner("Ablation: controller crashes vs supervised recovery");

    const std::vector<Scenario> scenarios = {
        {"crash", 8.0, "", ""},
        {"crash", 16.0, "", ""},
        {"crash", 24.0, "", ""},
        {"crash", 32.0, "", ""},
        {"hang", 12.0, "", ""},
        {"crash", 16.0, ";log.torn_tail=200", " + torn tail"},
        {"crash", 16.0, ";log.bitflip=4", " + bitflips"},
    };

    auto run = [&](const std::string &spec) {
        RunConfig cfg;
        cfg.tool = ToolKind::kleb;
        cfg.seed = 9;
        cfg.period = msToTicks(1);
        cfg.supervise = true;
        // Must comfortably exceed the controller's 10 ms drain
        // cadence (each successful drain is a heartbeat), while
        // still catching the hang row within the run.
        cfg.heartbeatTimeout = msToTicks(15);
        cfg.expectedLifetime = msToTicks(40);
        cfg.expectedInstructions =
            static_cast<std::uint64_t>(chunks) * 1000000ULL;
        cfg.faultSpec = spec;
        cfg.workloadFactory = [chunks](Addr, Random) {
            std::vector<hw::WorkChunk> work(
                chunks, computeChunk(1000000, 2.0));
            return std::make_unique<FixedWorkSource>(std::move(work));
        };
        return runOnce(cfg);
    };

    const RunResult control = run("");
    std::vector<std::string> labels = {"no faults"};
    std::vector<std::string> specs = {""};
    for (const Scenario &sc : scenarios) {
        const Tick at = static_cast<Tick>(
            std::llround(static_cast<double>(control.lifetime) *
                         sc.atMs / fullLifetimeMs));
        labels.push_back(csprintf("%s @ %sms%s", sc.fault,
                                  toFixed(ticksToMs(at), 2).c_str(),
                                  sc.label));
        specs.push_back(csprintf("controller.%s=%llu%s", sc.fault,
                                 static_cast<unsigned long long>(at),
                                 sc.extra));
    }

    std::vector<RunResult> results = {control};
    std::vector<RunResult> faulted = runTrials(
        args.jobs, scenarios.size(),
        [&](std::size_t k) { return run(specs[k + 1]); });
    results.insert(results.end(), faulted.begin(), faulted.end());

    Table table({"Scenario", "Lifetime (ms)", "Samples",
                 "Recovered", "Kept", "Dropped", "Vanished",
                 "Gap (ms)", "Restarts", "Outage (ms)", "Balanced",
                 "Injections"});
    std::vector<FaultRow> rows;
    for (std::size_t k = 0; k < results.size(); ++k) {
        const RunResult &r = results[k];
        table.addRow(
            {labels[k], toFixed(ticksToMs(r.lifetime), 2),
             std::to_string(r.samples),
             std::to_string(r.recovered.report.samplesRecovered),
             std::to_string(r.recovered.report.framesKept),
             std::to_string(r.recovered.report.framesDropped),
             std::to_string(r.recovered.report.framesVanished),
             toFixed(ticksToMs(r.recovered.report.gapTicks), 2),
             std::to_string(r.supervisor.restarts),
             toFixed(ticksToMs(r.supervisor.totalOutage), 2),
             r.recovered.report.balanced() ? "yes" : "NO",
             std::to_string(r.faultsInjected)});
        rows.push_back({labels[k], specs[k], r.faultsInjected,
                        r.supervisor.restarts,
                        r.recovered.report.balanced()});
    }
    table.print();
    if (args.csv)
        table.printCsv();

    std::printf("\nShape check: every row balances (kept + dropped "
                "+ vanished = emitted); the fault-free row shows "
                "zero restarts and zero gap; torn tails and "
                "bitflips shrink 'Kept', never the balance.\n");
    return reportClaims(injectionClaims(rows));
}
