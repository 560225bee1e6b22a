#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "claims.hh"

using namespace klebsim::bench;

namespace
{

FleetRow
fleetRow(const char *scenario, unsigned jobs, const char *matches,
         std::uint64_t restarts, std::uint32_t csv,
         std::uint32_t tree)
{
    FleetRow r;
    r.scenario = scenario;
    r.jobs = jobs;
    r.matches = matches;
    r.produced = 5120;
    r.kept = 4000;
    r.dropped = 600;
    r.vanished = 420;
    r.quarantined = 100;
    r.restarts = restarts;
    r.balanced = true;
    r.csvDigest = csv;
    r.treeDigest = tree;
    return r;
}

/** abl_fleet_scale's grid, with every claim holding. */
std::vector<FleetRow>
fleetRows()
{
    return {
        fleetRow("baseline", 1, "-", 0, 0xaabbccdd, 0x11223344),
        fleetRow("baseline", 2, "-", 0, 0xaabbccdd, 0x11223344),
        fleetRow("chaos", 1, "-", 0, 0xdeadbeef, 0x55667788),
        fleetRow("chaos", 2, "-", 0, 0xdeadbeef, 0x55667788),
        fleetRow("collector-crash", 2, "baseline", 1, 0xaabbccdd,
                 0x11223344),
        fleetRow("chaos-crash", 2, "chaos", 1, 0xdeadbeef,
                 0x55667788),
    };
}

/** The only broken claim, or a note that there was not exactly one. */
std::string
onlyClaim(const std::vector<std::string> &broken)
{
    if (broken.size() != 1)
        return std::to_string(broken.size()) + " broken claims";
    return broken[0];
}

ParetoRow
paretoRow(const char *workload, const char *mode, const char *config,
          double budget, double overhead, double err)
{
    return {workload, mode, config, budget, overhead, err};
}

/** A slice of abl_adaptive_budget's grid, with every claim holding. */
std::vector<ParetoRow>
paretoRows()
{
    return {
        paretoRow("matmul", "baseline", "-", 0.0, 0.0, 0.0),
        paretoRow("matmul", "fixed", "100us", 0.0, 6.1, 0.5),
        paretoRow("matmul", "fixed", "10ms", 0.0, 0.62, 0.1),
        paretoRow("matmul", "adaptive", "b0.5", 0.5, 0.71, 1.9),
        paretoRow("matmul", "adaptive", "b1.0", 1.0, 1.16, 0.0),
        // MKL rows are reported, never checked.
        paretoRow("mkl", "fixed", "10ms", 0.0, 0.2, 0.0),
        paretoRow("mkl", "adaptive", "b1.0", 1.0, 6.57, 9.0),
    };
}

/** A slice of both fault benches' grids, with every claim holding. */
std::vector<FaultRow>
faultRows()
{
    return {
        {"no faults", "", 0, 0, true},
        {"crash @ 2.48ms", "controller.crash=2480000000", 1, 1, true},
        {"hang @ 3.71ms", "controller.hang=3710000000", 1, 1, true},
        {"crash + bitflips",
         "controller.crash=4950000000;log.bitflip=4", 5, 1, true},
        // Not a controller fault: nothing to restart.
        {"24-bit counters", "pmu.width=24", 1, 0, true},
    };
}

} // namespace

TEST(BenchClaims, FleetRowsThatHoldPass)
{
    EXPECT_TRUE(fleetClaims(fleetRows()).empty());
}

TEST(BenchClaims, FleetBreaksAreNamed)
{
    std::vector<FleetRow> rows = fleetRows();
    rows[2].balanced = false;
    EXPECT_EQ(onlyClaim(fleetClaims(rows)),
              "chaos (jobs 1): accounting does not balance");

    rows = fleetRows();
    rows[3].produced += 1;
    EXPECT_EQ(onlyClaim(fleetClaims(rows)),
              "chaos (jobs 2): accounting does not balance");

    rows = fleetRows();
    rows[1].treeDigest = 0xffffffff;
    EXPECT_EQ(onlyClaim(fleetClaims(rows)),
              "baseline (jobs 2): digests differ across jobs values");

    rows = fleetRows();
    rows[4].csvDigest = 0xffffffff;
    EXPECT_EQ(onlyClaim(fleetClaims(rows)),
              "collector-crash: digests diverge from scenario "
              "baseline");

    rows = fleetRows();
    rows[5].restarts = 0;
    EXPECT_EQ(onlyClaim(fleetClaims(rows)),
              "chaos-crash: the collector never restarted");
}

TEST(BenchClaims, BudgetRowsThatHoldPass)
{
    EXPECT_TRUE(budgetClaims(paretoRows()).empty());
}

TEST(BenchClaims, BudgetBreaksAreNamed)
{
    std::vector<ParetoRow> rows = paretoRows();
    rows[4].overheadPct = 1.0 + budgetSlackPct + 0.01;
    EXPECT_EQ(onlyClaim(budgetClaims(rows)),
              "matmul b1.0: overhead 1.760% exceeds budget 1.00% + "
              "0.75 pp");

    // 2 pp above the best fixed row (0.1 %), not the worst (0.5 %).
    rows = paretoRows();
    rows[3].accuracyErrPct = 0.1 + accuracySlackPct + 0.01;
    EXPECT_EQ(onlyClaim(budgetClaims(rows)),
              "matmul b0.5: count error 2.1100% exceeds best fixed "
              "0.1000% + 2.00 pp");
}

TEST(BenchClaims, InjectionRowsThatHoldPass)
{
    EXPECT_TRUE(injectionClaims(faultRows()).empty());
}

TEST(BenchClaims, InjectionBreaksAreNamed)
{
    std::vector<FaultRow> rows = faultRows();
    rows[0].injected = 1;
    EXPECT_EQ(onlyClaim(injectionClaims(rows)),
              "no faults: the fault-free control injected or "
              "restarted");

    rows = faultRows();
    rows[0].restarts = 1;
    EXPECT_EQ(onlyClaim(injectionClaims(rows)),
              "no faults: the fault-free control injected or "
              "restarted");

    rows = faultRows();
    rows[1].injected = 0;
    EXPECT_EQ(onlyClaim(injectionClaims(rows)),
              "crash @ 2.48ms: no fault fired");

    rows = faultRows();
    rows[4].injected = 0;
    EXPECT_EQ(onlyClaim(injectionClaims(rows)),
              "24-bit counters: no fault fired");

    rows = faultRows();
    rows[2].restarts = 0;
    EXPECT_EQ(onlyClaim(injectionClaims(rows)),
              "hang @ 3.71ms: the controller never restarted");

    rows = faultRows();
    rows[3].balanced = false;
    EXPECT_EQ(onlyClaim(injectionClaims(rows)),
              "crash + bitflips: the durable log does not balance");
}
