#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "base/random.hh"
#include "bench_support/trial_pool.hh"
#include "fault/fault_plan.hh"
#include "fleet/fleet.hh"

using namespace klebsim;
using fleet::Delivery;
using fleet::MachineShardResult;

namespace
{

bool
sameDelivery(const Delivery &a, const Delivery &b)
{
    return a.arrival == b.arrival && a.rec.machine == b.rec.machine &&
           a.rec.core == b.rec.core && a.rec.epoch == b.rec.epoch &&
           a.rec.seq == b.rec.seq && a.rec.ts == b.rec.ts &&
           a.rec.final == b.rec.final && a.rec.counts == b.rec.counts;
}

/**
 * The Phase-3 order before the merge: every shard's deliveries
 * spliced in machine-id order, then std::sort.
 */
std::vector<Delivery>
sortedSplice(const std::vector<MachineShardResult> &shards)
{
    std::vector<Delivery> all;
    for (const MachineShardResult &s : shards)
        all.insert(all.end(), s.deliveries.begin(),
                   s.deliveries.end());
    std::sort(all.begin(), all.end(), fleet::deliveryBefore);
    return all;
}

/** The worker's half of the merge: sort each machine's run. */
void
sortRuns(std::vector<MachineShardResult> *shards)
{
    for (MachineShardResult &s : *shards)
        std::sort(s.deliveries.begin(), s.deliveries.end(),
                  fleet::deliveryBefore);
}

void
expectSameStream(const std::vector<Delivery> &got,
                 const std::vector<Delivery> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_TRUE(sameDelivery(got[i], want[i]))
            << "first difference at record " << i;
}

Delivery
record(Tick arrival, fleet::MachineId m, std::uint16_t core,
       std::uint64_t seq)
{
    Delivery d;
    d.arrival = arrival;
    d.rec.machine = m;
    d.rec.core = core;
    d.rec.seq = seq;
    d.rec.ts = 10 * (seq + 1);
    d.rec.counts = {seq * 3, seq * 2, seq};
    return d;
}

} // namespace

TEST(FleetMerge, MatchesSortedSpliceOnHandBuiltRuns)
{
    // Machines 0 and 1 tie on arrival at 100 and 200; machine 1's
    // two cores tie with each other too.  Machine 2 sent nothing,
    // machine 3's simulation died, and machine 4's first record was
    // delayed past its later ones.
    std::vector<MachineShardResult> shards(5);
    for (fleet::MachineId m = 0; m < 5; ++m)
        shards[m].account.machine = m;
    shards[0].deliveries = {record(100, 0, 0, 0), record(200, 0, 0, 1),
                            record(300, 0, 0, 2)};
    shards[1].deliveries = {record(100, 1, 0, 0), record(100, 1, 1, 0),
                            record(200, 1, 0, 1), record(200, 1, 1, 1)};
    shards[3].account.simFailed = true;
    shards[4].deliveries = {record(900, 4, 0, 0), record(150, 4, 0, 1),
                            record(200, 4, 0, 2), record(200, 4, 0, 3)};

    const std::vector<Delivery> want = sortedSplice(shards);
    sortRuns(&shards);
    const std::vector<Delivery> got = fleet::mergeDeliveries(shards);
    expectSameStream(got, want);

    // Spot-check the order the ties resolve to.
    ASSERT_EQ(got.size(), 11u);
    EXPECT_TRUE(sameDelivery(got[0], record(100, 0, 0, 0)));
    EXPECT_TRUE(sameDelivery(got[1], record(100, 1, 0, 0)));
    EXPECT_TRUE(sameDelivery(got[2], record(100, 1, 1, 0)));
    EXPECT_TRUE(sameDelivery(got[3], record(150, 4, 0, 1)));
    EXPECT_TRUE(sameDelivery(got[10], record(900, 4, 0, 0)));
}

TEST(FleetMerge, MatchesSortedSpliceOnRandomRuns)
{
    // Arrivals drawn from a narrow window force ties across
    // machines, within a machine across cores, and within a core
    // across sequence numbers; a fifth of the records are delayed.
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        Random rng(seed);
        const std::uint32_t machines = 1 + rng.below(40);
        std::vector<MachineShardResult> shards(machines);
        for (fleet::MachineId m = 0; m < machines; ++m) {
            MachineShardResult &s = shards[m];
            s.account.machine = m;
            if (rng.chance(0.15)) {
                s.account.simFailed = rng.chance(0.5);
                continue; // empty run
            }
            const std::uint32_t cores = 1 + rng.below(3);
            for (std::uint16_t c = 0; c < cores; ++c) {
                const std::uint64_t n = rng.below(30);
                for (std::uint64_t q = 0; q < n; ++q) {
                    Tick at = 5 * q + rng.below(8);
                    if (rng.chance(0.2))
                        at += 60;
                    s.deliveries.push_back(record(at, m, c, q));
                }
            }
        }
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::vector<Delivery> want = sortedSplice(shards);
        sortRuns(&shards);
        expectSameStream(fleet::mergeDeliveries(shards), want);
    }
}

TEST(FleetMerge, SimulatedRunsComeBackSortedAndMergeLikeTheSplice)
{
    // A small chaos fleet: link delays reorder records within a
    // machine, so the per-machine runs the pool returns must have
    // been sorted by the worker, not left in emission order.
    fleet::FleetConfig cfg;
    cfg.machines = 12;
    cfg.coresPerMachine = 2;
    cfg.seed = 5;
    cfg.jobs = 2;
    cfg.faultSpec = "machine.crash=0.3;link.drop=0.05;link.delay=0.3;"
                    "link.delay.by=500us";
    fault::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fault::FaultPlan::parse(cfg.faultSpec, &plan, &err))
        << err;

    bench::TrialPool pool(cfg.jobs);
    std::vector<bench::TrialFailure> failures;
    const std::vector<MachineShardResult> shards =
        fleet::simulateMachines(cfg, plan, pool, &failures);
    ASSERT_TRUE(failures.empty());
    ASSERT_EQ(shards.size(), cfg.machines);

    std::uint64_t delayed = 0;
    for (const MachineShardResult &s : shards) {
        EXPECT_TRUE(std::is_sorted(s.deliveries.begin(),
                                   s.deliveries.end(),
                                   fleet::deliveryBefore))
            << "machine " << s.account.machine;
        delayed += s.account.delayed;
    }
    EXPECT_GT(delayed, 0u);

    expectSameStream(fleet::mergeDeliveries(shards),
                     sortedSplice(shards));
}
