/**
 * @file
 * The claims four benches check on the rows they compute:
 * abl_fleet_scale (fleetClaims), abl_adaptive_budget
 * (budgetClaims), abl_crash_recovery and abl_fault_degradation
 * (injectionClaims).  Each check is a pure function from the bench's
 * rows to one line per broken claim; the bench passes that list to
 * reportClaims(), which prints each line to stderr as
 * `CLAIM FAILED: ...` and turns it into the exit code.  Standard
 * output is the same whether the claims hold or not.
 */

#ifndef KLEBSIM_BENCH_CLAIMS_HH
#define KLEBSIM_BENCH_CLAIMS_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "base/str.hh"

namespace klebsim::bench
{

/** One abl_fleet_scale scenario run, as the bench prints it. */
struct FleetRow
{
    std::string scenario;
    unsigned jobs = 0;

    /** Scenario whose digests this row must match ("-" = none). */
    std::string matches = "-";

    /** @{ Record accounting, summed over the fleet's machines. */
    std::uint64_t produced = 0;
    std::uint64_t kept = 0;
    std::uint64_t dropped = 0;
    std::uint64_t vanished = 0;
    std::uint64_t quarantined = 0;
    /** @} */

    std::uint64_t accepted = 0; //!< records the collector accepted
    std::size_t holes = 0;      //!< sequence holes it reported
    std::uint64_t restarts = 0; //!< collector crash restarts

    /** The fleet balance invariant held on every machine. */
    bool balanced = false;

    std::uint32_t csvDigest = 0;
    std::uint32_t treeDigest = 0;
};

/**
 * Every row balances its accounting; all rows of one scenario carry
 * one digest pair, whatever their jobs value; every row that names a
 * crash-free scenario in `matches` carries that scenario's digests
 * and restarted its collector at least once.
 */
inline std::vector<std::string>
fleetClaims(const std::vector<FleetRow> &rows)
{
    std::vector<std::string> broken;
    std::map<std::string, const FleetRow *> first_of;
    for (const FleetRow &r : rows) {
        const std::string tag =
            r.scenario + " (jobs " + std::to_string(r.jobs) + ")";
        if (!r.balanced || r.kept + r.dropped + r.vanished +
                                   r.quarantined !=
                               r.produced)
            broken.push_back(tag + ": accounting does not balance");
        auto [first, fresh] = first_of.try_emplace(r.scenario, &r);
        if (!fresh && (first->second->csvDigest != r.csvDigest ||
                       first->second->treeDigest != r.treeDigest))
            broken.push_back(tag +
                             ": digests differ across jobs values");
    }
    for (const FleetRow &r : rows) {
        if (r.matches == "-")
            continue;
        auto it = first_of.find(r.matches);
        if (it == first_of.end() ||
            it->second->csvDigest != r.csvDigest ||
            it->second->treeDigest != r.treeDigest)
            broken.push_back(r.scenario +
                             ": digests diverge from scenario " +
                             r.matches);
        if (r.restarts == 0)
            broken.push_back(r.scenario +
                             ": the collector never restarted");
    }
    return broken;
}

/**
 * Percentage points an adaptive matmul row's overhead may exceed its
 * budget by.  The fixed session costs put a floor under reachable
 * overhead, so a tight budget lands a little above it with the
 * governor pegged at its slowest period.
 */
constexpr double budgetSlackPct = 0.75;

/** Points an adaptive row's count error may exceed the best fixed row's. */
constexpr double accuracySlackPct = 2.0;

/** One abl_adaptive_budget Pareto row, as the bench prints it. */
struct ParetoRow
{
    std::string workload; //!< "matmul" or "mkl"
    std::string mode;     //!< "baseline", "fixed" or "adaptive"
    std::string config;   //!< period or budget label
    double budgetPct = 0.0;
    double overheadPct = 0.0;
    double accuracyErrPct = 0.0;
};

/**
 * Every adaptive matmul row keeps its overhead within its budget plus
 * budgetSlackPct, and its count error within accuracySlackPct of the
 * best fixed matmul row.  The MKL rows are not checked: the governor
 * needs a few drain cycles to converge, which table III's sub-100 ms
 * dgemm does not grant.
 */
inline std::vector<std::string>
budgetClaims(const std::vector<ParetoRow> &rows)
{
    std::map<std::string, double> best_fixed;
    for (const ParetoRow &r : rows) {
        if (r.mode != "fixed")
            continue;
        auto [it, fresh] =
            best_fixed.try_emplace(r.workload, r.accuracyErrPct);
        if (!fresh && r.accuracyErrPct < it->second)
            it->second = r.accuracyErrPct;
    }

    std::vector<std::string> broken;
    for (const ParetoRow &r : rows) {
        if (r.mode != "adaptive" || r.workload != "matmul")
            continue;
        const std::string tag = r.workload + " " + r.config;
        if (r.overheadPct > r.budgetPct + budgetSlackPct)
            broken.push_back(csprintf(
                "%s: overhead %.3f%% exceeds budget %.2f%% + %.2f pp",
                tag.c_str(), r.overheadPct, r.budgetPct,
                budgetSlackPct));
        auto fixed = best_fixed.find(r.workload);
        if (fixed != best_fixed.end() &&
            r.accuracyErrPct > fixed->second + accuracySlackPct)
            broken.push_back(csprintf(
                "%s: count error %.4f%% exceeds best fixed %.4f%% + "
                "%.2f pp",
                tag.c_str(), r.accuracyErrPct, fixed->second,
                accuracySlackPct));
    }
    return broken;
}

/** One fault scenario run of abl_crash_recovery or abl_fault_degradation. */
struct FaultRow
{
    std::string scenario;

    /** The fault plan spec the row ran ("" = the fault-free control). */
    std::string spec;

    std::uint64_t injected = 0; //!< injections the plan performed
    std::uint64_t restarts = 0; //!< supervisor controller restarts

    /** Durable-log frame accounting balanced (true without a log). */
    bool balanced = true;
};

/**
 * The fault-free control injects nothing and restarts nothing; every
 * other row injects at least one fault; every row that crashes or
 * hangs the controller (a `controller.` key in its spec) restarts it
 * at least once; every row's durable log balances.  A fault row that
 * injects nothing measures the control twice.
 */
inline std::vector<std::string>
injectionClaims(const std::vector<FaultRow> &rows)
{
    std::vector<std::string> broken;
    for (const FaultRow &r : rows) {
        if (r.spec.empty()) {
            if (r.injected != 0 || r.restarts != 0)
                broken.push_back(r.scenario +
                                 ": the fault-free control injected "
                                 "or restarted");
        } else {
            if (r.injected == 0)
                broken.push_back(r.scenario + ": no fault fired");
            if (r.spec.find("controller.") != std::string::npos &&
                r.restarts == 0)
                broken.push_back(r.scenario +
                                 ": the controller never restarted");
        }
        if (!r.balanced)
            broken.push_back(r.scenario +
                             ": the durable log does not balance");
    }
    return broken;
}

/**
 * Print each broken claim to stderr.
 * @return the bench's exit code: 0 when every claim held, else 1.
 */
inline int
reportClaims(const std::vector<std::string> &broken)
{
    for (const std::string &claim : broken)
        std::fprintf(stderr, "CLAIM FAILED: %s\n", claim.c_str());
    return broken.empty() ? 0 : 1;
}

} // namespace klebsim::bench

#endif // KLEBSIM_BENCH_CLAIMS_HH
