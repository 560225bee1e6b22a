/**
 * @file
 * Ablation: fleet-scale collection (DESIGN.md section 15).
 *
 * Spins up a fleet of simulated machines — each a full kernel +
 * K-LEB session over a workload mix — streaming epoch-framed
 * records over a lossy link into the central collector, and proves
 * determinism at scale: the aggregate CSV and monitor-tree digest
 * are byte-identical at --jobs 1 and --jobs N, with and without
 * chaos (machine crashes, link drops/delays) and with a collector
 * crash + journal-replay restart in the middle.  The collector's
 * per-record cost is measured by BM_FleetCollectorIngest in
 * micro_substrate, so this bench prints no host time.
 *
 * --runs N sets the machine count (default 10000; --quick 256).
 * The machine-readable block under `fleet smoke CSV` is gated in CI
 * by `bench_report --check-fleet`.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/invariants.hh"
#include "bench_util.hh"
#include "fleet/fleet.hh"

using namespace klebsim;
using namespace klebsim::bench;
using fleet::FleetConfig;
using fleet::FleetResult;

namespace
{

/** One row of the gated smoke CSV. */
struct SmokeRow
{
    std::string scenario;
    unsigned jobs = 0;

    /** Scenario whose digests this row must match ("-" = none). */
    std::string matches = "-";

    FleetResult result;
};

/** The pinned contract bench_report --check-fleet parses. */
constexpr const char *smokeHeader =
    "scenario,jobs,machines,produced,kept,dropped,vanished,"
    "quarantined,accepted,holes,restarts,balanced,matches,"
    "csv_digest,tree_digest";

bool
balanced(const FleetResult &r)
{
    analysis::InvariantChecker checker;
    checker.checkFleetBalance(r, "abl_fleet_scale");
    for (const std::string &v : checker.violations())
        std::fprintf(stderr, "  INVARIANT: %s\n", v.c_str());
    return checker.ok();
}

FleetResult
runScenario(std::uint32_t machines, unsigned jobs,
            const std::string &spec)
{
    FleetConfig cfg;
    cfg.machines = machines;
    cfg.coresPerMachine = 1;
    cfg.rackSize = 64;
    cfg.seed = 42;
    cfg.jobs = jobs;
    cfg.faultSpec = spec;
    return fleet::runFleet(cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    const std::uint32_t machines = static_cast<std::uint32_t>(
        args.runsOr(args.quick ? 256 : 10000));
    const unsigned many = args.jobs > 1 ? args.jobs : 2;

    banner("Ablation: fleet-scale collection");
    std::printf("  %u machines per fleet, jobs 1 vs %u\n\n",
                machines, many);

    const std::string chaos =
        "machine.crash=0.2;link.drop=0.05;link.delay=0.1;"
        "link.delay.by=500us";

    std::vector<SmokeRow> rows;
    auto add = [&](const char *scenario, unsigned jobs,
                   const char *matches, const std::string &spec) {
        SmokeRow row;
        row.scenario = scenario;
        row.jobs = jobs;
        row.matches = matches;
        row.result = runScenario(machines, jobs, spec);
        rows.push_back(std::move(row));
    };

    add("baseline", 1, "-", "");
    add("baseline", many, "-", "");
    add("chaos", 1, "-", chaos);
    add("chaos", many, "-", chaos);
    // A collector crash mid-drain must replay back to the exact
    // aggregate of the corresponding crash-free scenario.
    add("collector-crash", many, "baseline",
        "collector.crash=1ms");
    add("chaos-crash", many, "chaos",
        chaos + ";collector.crash=1ms");

    Table table({"Scenario", "Jobs", "Produced", "Kept", "Dropped",
                 "Vanished", "Quarantined", "Holes", "Restarts",
                 "Balanced", "CSV digest", "Tree digest"});
    std::vector<std::string> csv_lines;
    for (const SmokeRow &row : rows) {
        const FleetResult &r = row.result;
        std::uint64_t produced = 0, kept = 0, dropped = 0;
        std::uint64_t vanished = 0, quarantined = 0;
        for (const auto &a : r.accounts) {
            produced += a.produced;
            kept += a.kept;
            dropped += a.dropped;
            vanished += a.vanished;
            quarantined += a.quarantined;
        }
        const bool ok = balanced(r);
        table.addRow({row.scenario, std::to_string(row.jobs),
                      std::to_string(produced),
                      std::to_string(kept),
                      std::to_string(dropped),
                      std::to_string(vanished),
                      std::to_string(quarantined),
                      std::to_string(r.holes.size()),
                      std::to_string(r.collector.restarts),
                      ok ? "yes" : "NO",
                      csprintf("%08x", r.csvDigest),
                      csprintf("%08x", r.treeDigest)});
        csv_lines.push_back(csprintf(
            "%s,%u,%u,%llu,%llu,%llu,%llu,%llu,%llu,%zu,%llu,%s,"
            "%s,%08x,%08x",
            row.scenario.c_str(), row.jobs, machines,
            static_cast<unsigned long long>(produced),
            static_cast<unsigned long long>(kept),
            static_cast<unsigned long long>(dropped),
            static_cast<unsigned long long>(vanished),
            static_cast<unsigned long long>(quarantined),
            static_cast<unsigned long long>(r.collector.accepted),
            r.holes.size(),
            static_cast<unsigned long long>(r.collector.restarts),
            ok ? "yes" : "NO", row.matches.c_str(), r.csvDigest,
            r.treeDigest));
    }
    table.print();

    std::printf("\nfleet smoke CSV\n%s\n", smokeHeader);
    for (const std::string &line : csv_lines)
        std::printf("%s\n", line.c_str());

    std::printf(
        "\nShape check: every row balances and carries the same "
        "digest pair as its jobs-1 twin; the crash rows restart "
        "exactly once and still match their crash-free scenario "
        "byte for byte; holes appear only under chaos, and only "
        "for quarantined machines.\n");
    return 0;
}
