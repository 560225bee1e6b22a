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
 * The bench checks its own claims (fleetClaims in claims.hh): each
 * broken one goes to stderr as `CLAIM FAILED: ...` and the exit code
 * is 1.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/invariants.hh"
#include "bench_util.hh"
#include "claims.hh"
#include "fleet/fleet.hh"

using namespace klebsim;
using namespace klebsim::bench;
using fleet::FleetConfig;
using fleet::FleetResult;

namespace
{

/** Header of the machine-readable smoke CSV block. */
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

FleetRow
runScenario(const char *scenario, unsigned jobs, const char *matches,
            std::uint32_t machines, const std::string &spec)
{
    FleetConfig cfg;
    cfg.machines = machines;
    cfg.coresPerMachine = 1;
    cfg.rackSize = 64;
    cfg.seed = 42;
    cfg.jobs = jobs;
    cfg.faultSpec = spec;
    const FleetResult r = fleet::runFleet(cfg);

    FleetRow row;
    row.scenario = scenario;
    row.jobs = jobs;
    row.matches = matches;
    for (const auto &a : r.accounts) {
        row.produced += a.produced;
        row.kept += a.kept;
        row.dropped += a.dropped;
        row.vanished += a.vanished;
        row.quarantined += a.quarantined;
    }
    row.accepted = r.collector.accepted;
    row.holes = r.holes.size();
    row.restarts = r.collector.restarts;
    row.balanced = balanced(r);
    row.csvDigest = r.csvDigest;
    row.treeDigest = r.treeDigest;
    return row;
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

    std::vector<FleetRow> rows;
    auto add = [&](const char *scenario, unsigned jobs,
                   const char *matches, const std::string &spec) {
        rows.push_back(
            runScenario(scenario, jobs, matches, machines, spec));
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
    for (const FleetRow &row : rows) {
        table.addRow({row.scenario, std::to_string(row.jobs),
                      std::to_string(row.produced),
                      std::to_string(row.kept),
                      std::to_string(row.dropped),
                      std::to_string(row.vanished),
                      std::to_string(row.quarantined),
                      std::to_string(row.holes),
                      std::to_string(row.restarts),
                      row.balanced ? "yes" : "NO",
                      csprintf("%08x", row.csvDigest),
                      csprintf("%08x", row.treeDigest)});
        csv_lines.push_back(csprintf(
            "%s,%u,%u,%llu,%llu,%llu,%llu,%llu,%llu,%zu,%llu,%s,"
            "%s,%08x,%08x",
            row.scenario.c_str(), row.jobs, machines,
            static_cast<unsigned long long>(row.produced),
            static_cast<unsigned long long>(row.kept),
            static_cast<unsigned long long>(row.dropped),
            static_cast<unsigned long long>(row.vanished),
            static_cast<unsigned long long>(row.quarantined),
            static_cast<unsigned long long>(row.accepted), row.holes,
            static_cast<unsigned long long>(row.restarts),
            row.balanced ? "yes" : "NO", row.matches.c_str(),
            row.csvDigest, row.treeDigest));
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
    return reportClaims(fleetClaims(rows));
}
