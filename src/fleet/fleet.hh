/**
 * @file
 * Fleet orchestration: N simulated machines, one collector.
 *
 * runFleet() is three deterministic phases:
 *
 *  1. machine simulations, sharded across bench::TrialPool workers
 *     (crash-tolerant tryMap: a worker that dies mid-trial becomes
 *     an accounted dead machine, never a lost run);
 *  2. per-machine lossy-link transmission (pure per-machine RNG),
 *     after which the worker sorts its machine's deliveries;
 *  3. a k-way merge of those per-machine sorted runs into one
 *     stream, and one sequential collector drain over it.
 *
 * Every stochastic decision derives from (seed, machine id) through
 * the shared splitmix64 mixer, and the merge order is
 * (arrival, machine, core, seq) — a strict total order, so the
 * merged stream is unique and the aggregate CSV and the tree digest
 * are byte-identical at any --jobs value, with or without a
 * collector crash.
 */

#ifndef KLEBSIM_FLEET_FLEET_HH
#define KLEBSIM_FLEET_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "bench_support/trial_pool.hh"
#include "collector.hh"
#include "fault/fault_plan.hh"
#include "link.hh"
#include "monitor_tree.hh"
#include "wire.hh"

namespace klebsim::fleet
{

/** Fleet-run parameters. */
struct FleetConfig
{
    std::uint32_t machines = 64;
    std::uint32_t coresPerMachine = 2;
    std::uint32_t rackSize = 32;

    std::uint64_t seed = 1;

    /** TrialPool workers for the machine phase (0 = host cores). */
    unsigned jobs = 1;

    /** K-LEB sampling period on every machine. */
    Tick period = usToTicks(100);

    /**
     * Fleet fault plan spec (fault/fault_plan.hh): machine.crash,
     * link.drop, link.delay[.by], collector.crash, plus a seed.
     * Empty runs the fleet fault-free.
     */
    std::string faultSpec;

    /** @{ Collector tuning (see CollectorConfig). */
    Tick heartbeatTimeout = msToTicks(1);
    int probeBudget = 3;
    Tick drainCost = 50 * tickPerNs;
    Tick backpressureLag = usToTicks(100);
    std::uint64_t checkpointEvery = 0;
    /** @} */

    /** @{ Link tuning (see LinkParams). */
    Tick linkLatency = usToTicks(50);
    Tick linkJitter = usToTicks(20);
    /** @} */
};

/** Everything a fleet run produced. */
struct FleetResult
{
    /** Parsed fault plan the run used. */
    fault::FaultPlan plan;

    /** Per-machine ledgers, indexed by machine id. */
    std::vector<MachineAccount> accounts;

    /** Collector operational + accounting counters. */
    CollectorStats collector;

    /** Explicit holes for quarantined machines. */
    std::vector<FleetHole> holes;

    /** The final monitor tree (moved out of the collector). */
    MonitorTree tree{1, 1, 1};

    /** CRC32C over the tree's full encoded state. */
    std::uint32_t treeDigest = 0;

    /** The aggregate CSV (rack rows + fleet row; pinned header). */
    std::string csv;

    /** CRC32C over the CSV bytes. */
    std::uint32_t csvDigest = 0;

    /**
     * Sum over machines of kept+dropped+vanished+quarantined; the
     * checkFleetBalance invariant requires this to equal the sum of
     * what every machine produced.
     */
    std::uint64_t aggregateAccounted = 0;

    /** Machine simulations that died in their worker. */
    std::vector<bench::TrialFailure> simFailures;
};

/** The pinned header of FleetResult::csv (bench comparators). */
extern const char *const fleetCsvHeader;

/**
 * One machine's contribution to the fleet run: its ledger (as far
 * as the machine side can fill it) plus the deliveries that
 * survived its uplink, sorted by deliveryBefore.
 */
struct MachineShardResult
{
    MachineAccount account;
    std::vector<Delivery> deliveries;
};

/**
 * Phases 1+2 of runFleet(): simulate every machine, push its
 * stream through its lossy uplink and sort what arrived, sharded
 * across @p pool workers.
 * Entry m of the result holds machine m's ledger and deliveries
 * regardless of which worker ran it; a machine whose simulation
 * died in its worker is recorded in @p simFailures and marked
 * simFailed, and perturbs no other shard.  Deterministic at any
 * pool width: every stochastic decision derives from
 * (cfg.seed, machine id) through the shared splitmix64 mixer.
 */
std::vector<MachineShardResult> simulateMachines(
    const FleetConfig &cfg, const fault::FaultPlan &plan,
    bench::TrialPool &pool,
    std::vector<bench::TrialFailure> *simFailures);

/**
 * Phase 3's input: every shard's deliveries merged k-way into one
 * stream sorted by deliveryBefore.  Each shard's deliveries must
 * already be sorted by deliveryBefore, as simulateMachines()
 * returns them.  The result equals std::sort of all the shards'
 * deliveries spliced together.
 */
std::vector<Delivery>
mergeDeliveries(const std::vector<MachineShardResult> &shards);

/** Run one fleet end to end. */
FleetResult runFleet(const FleetConfig &cfg);

} // namespace klebsim::fleet

#endif // KLEBSIM_FLEET_FLEET_HH
