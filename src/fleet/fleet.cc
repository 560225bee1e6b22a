#include "fleet.hh"

#include <algorithm>
#include <optional>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/str.hh"
#include "machine.hh"

namespace klebsim::fleet
{

const char *const fleetCsvHeader =
    "scope,machines,observations,kept,dropped,vanished,quarantined,"
    "holes,ipc_mean,ipc_p50,ipc_p99,ipc_wmin,ipc_wmax,mpki_mean,"
    "mpki_p50,mpki_p99";

namespace
{

/**
 * The machine.crash schedule: whether (and when) machine @p id
 * crashes under @p plan.  One forked stream per machine, salted by
 * the fault point — the FaultInjector's per-point discipline — so
 * the schedule is independent of every other draw in the run.
 */
Tick
machineCrashAt(const fault::FaultPlan &plan, std::uint64_t seed,
               MachineId id)
{
    if (plan.machineCrashProb <= 0.0)
        return 0;
    Random rng(bench::trialSeed(
        seed ^ plan.seed,
        static_cast<std::uint64_t>(
            fault::FaultPoint::machineCrash),
        id));
    if (!rng.chance(plan.machineCrashProb))
        return 0;
    // Crash somewhere in the meat of the run: early enough that a
    // tail of samples vanishes, late enough that some were sent.
    return static_cast<Tick>(
        rng.uniform(0.3, 0.8) *
        static_cast<double>(nominalMachineLifetime));
}

std::string
csvRow(const char *scope, std::uint64_t machines,
       const NodeStats &node, std::uint64_t kept,
       std::uint64_t dropped, std::uint64_t vanished,
       std::uint64_t quarantined, std::uint64_t holes)
{
    const Reduction &ipc = node.ipc;
    const Reduction &mpki = node.mpki;
    return csprintf(
        "%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g",
        scope, (unsigned long long)machines,
        (unsigned long long)ipc.lifetime().count(),
        (unsigned long long)kept, (unsigned long long)dropped,
        (unsigned long long)vanished,
        (unsigned long long)quarantined, (unsigned long long)holes,
        ipc.lifetime().count() ? ipc.lifetime().mean() : 0.0,
        ipc.windowPercentile(50), ipc.windowPercentile(99),
        ipc.windowMin(), ipc.windowMax(),
        mpki.lifetime().count() ? mpki.lifetime().mean() : 0.0,
        mpki.windowPercentile(50), mpki.windowPercentile(99));
}

} // anonymous namespace

std::vector<MachineShardResult>
simulateMachines(const FleetConfig &cfg,
                 const fault::FaultPlan &plan,
                 bench::TrialPool &pool,
                 std::vector<bench::TrialFailure> *simFailures)
{
    LinkParams link;
    link.baseLatency = cfg.linkLatency;
    link.jitterMax = cfg.linkJitter;
    link.dropProb = plan.linkDropProb;
    link.delayProb = plan.linkDelayProb;
    link.delayBy = plan.linkDelayBy;

    // Simulate the machine AND cross its uplink inside the worker:
    // transmit() draws only from a per-machine forked stream, so
    // the phase-2 work parallelizes with the phase-1 work it feeds.
    auto slots = pool.tryMap(
        cfg.machines,
        [&](std::size_t i) {
            MachineParams p;
            p.id = static_cast<MachineId>(i);
            p.seed = cfg.seed;
            p.cores = cfg.coresPerMachine;
            p.period = cfg.period;
            p.crashAt = machineCrashAt(plan, cfg.seed, p.id);

            MachineShardResult shard;
            MachineOutput out = runMachine(p);
            shard.account.machine = p.id;
            shard.account.produced = out.produced;
            shard.account.vanished = out.vanishedLocal;
            shard.account.crashed = out.crashed;
            LinkStats ls = transmit(out, link, cfg.seed,
                                    &shard.deliveries);
            shard.account.sent = ls.delivered + ls.dropped;
            shard.account.dropped = ls.dropped;
            shard.account.delayed = ls.delayed;
            std::sort(shard.deliveries.begin(),
                      shard.deliveries.end(), deliveryBefore);
            return shard;
        },
        simFailures);

    std::vector<MachineShardResult> shards(cfg.machines);
    for (MachineId m = 0; m < cfg.machines; ++m) {
        if (slots[m]) {
            shards[m] = std::move(*slots[m]);
        } else {
            shards[m].account.machine = m;
            shards[m].account.simFailed = true;
        }
    }
    return shards;
}

std::vector<Delivery>
mergeDeliveries(const std::vector<MachineShardResult> &shards)
{
    // A heap of the non-empty runs, earliest head on top.
    struct Run
    {
        const Delivery *at;
        const Delivery *end;
    };
    auto later = [](const Run &a, const Run &b) {
        return deliveryBefore(*b.at, *a.at);
    };

    std::vector<Run> heap;
    std::size_t total = 0;
    for (const MachineShardResult &s : shards) {
        total += s.deliveries.size();
        if (!s.deliveries.empty())
            heap.push_back({s.deliveries.data(),
                            s.deliveries.data() + s.deliveries.size()});
    }
    std::make_heap(heap.begin(), heap.end(), later);

    std::vector<Delivery> merged;
    merged.reserve(total);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        Run &r = heap.back();
        merged.push_back(*r.at);
        if (++r.at == r.end)
            heap.pop_back();
        else
            std::push_heap(heap.begin(), heap.end(), later);
    }
    return merged;
}

FleetResult
runFleet(const FleetConfig &cfg)
{
    fatal_if(cfg.machines == 0 || cfg.coresPerMachine == 0 ||
                 cfg.rackSize == 0,
             "fleet with an empty topology");

    FleetResult result;
    if (!cfg.faultSpec.empty()) {
        std::string err;
        fatal_if(!fault::FaultPlan::parse(cfg.faultSpec,
                                          &result.plan, &err),
                 "bad fleet fault spec: ", err);
    }
    const fault::FaultPlan &plan = result.plan;

    // Phases 1+2: simulate every machine and cross its lossy link,
    // sharded across workers.  A worker that dies takes exactly its
    // machine down; tryMap keeps the surviving shards
    // byte-identical.
    bench::TrialPool pool(cfg.jobs);
    std::vector<MachineShardResult> shards = simulateMachines(
        cfg, plan, pool, &result.simFailures);

    // Phase 3: one sequential drain in deterministic merge order.
    result.accounts.resize(cfg.machines);
    for (MachineId m = 0; m < cfg.machines; ++m)
        result.accounts[m] = shards[m].account;
    const std::vector<Delivery> deliveries = mergeDeliveries(shards);
    // The merged stream holds a copy of every run; free the runs
    // before the collector's journal grows.
    shards.clear();

    CollectorConfig ccfg;
    ccfg.machines = cfg.machines;
    ccfg.coresPerMachine = cfg.coresPerMachine;
    ccfg.rackSize = cfg.rackSize;
    ccfg.heartbeatTimeout = cfg.heartbeatTimeout;
    ccfg.probeBudget = cfg.probeBudget;
    ccfg.drainCost = cfg.drainCost;
    ccfg.backpressureLag = cfg.backpressureLag;
    ccfg.checkpointEvery = cfg.checkpointEvery;
    ccfg.crashAt = plan.collectorCrashAt;

    Collector collector(ccfg);
    collector.ingest(deliveries);
    const Tick last_arrival =
        deliveries.empty() ? 0 : deliveries.back().arrival;
    collector.finish(last_arrival + collector.quarantineAfter() +
                     1);

    // Fold the collector's per-peer view into the ledgers.
    for (MachineId m = 0; m < cfg.machines; ++m) {
        const PeerState &p = collector.peer(m);
        MachineAccount &acct = result.accounts[m];
        acct.kept = p.kept;
        acct.vanished += p.reordered;
        acct.quarantined = p.lateDiscarded;
        acct.isQuarantined = p.quarantined;
        result.aggregateAccounted += acct.kept + acct.dropped +
                                     acct.vanished +
                                     acct.quarantined;
    }

    result.collector = collector.stats();
    result.holes = collector.holes();

    // The aggregate CSV: one row per rack plus a fleet row, every
    // number a pure function of the merged stream.
    const MonitorTree &tree = collector.tree();
    std::vector<std::string> lines;
    lines.emplace_back(fleetCsvHeader);
    for (std::uint32_t r = 0; r < tree.racks(); ++r) {
        const std::uint32_t lo = r * cfg.rackSize;
        const std::uint32_t hi =
            std::min(lo + cfg.rackSize, cfg.machines);
        std::uint64_t kept = 0, dropped = 0, vanished = 0,
                      quarantined = 0, holes = 0;
        for (std::uint32_t m = lo; m < hi; ++m) {
            const MachineAccount &a = result.accounts[m];
            kept += a.kept;
            dropped += a.dropped;
            vanished += a.vanished;
            quarantined += a.quarantined;
            holes += a.isQuarantined ? 1 : 0;
        }
        lines.push_back(csvRow(csprintf("rack%u", r).c_str(),
                               hi - lo, tree.rack(r), kept,
                               dropped, vanished, quarantined,
                               holes));
    }
    {
        std::uint64_t kept = 0, dropped = 0, vanished = 0,
                      quarantined = 0;
        for (const MachineAccount &a : result.accounts) {
            kept += a.kept;
            dropped += a.dropped;
            vanished += a.vanished;
            quarantined += a.quarantined;
        }
        lines.push_back(csvRow("fleet", cfg.machines, tree.fleet(),
                               kept, dropped, vanished, quarantined,
                               result.holes.size()));
    }
    result.csv = join(lines, "\n") + "\n";
    result.csvDigest = kleb::crc32c(
        reinterpret_cast<const std::uint8_t *>(result.csv.data()),
        result.csv.size());

    result.tree = tree; // copy before the collector goes away
    result.treeDigest = result.tree.digest();
    return result;
}

} // namespace klebsim::fleet
