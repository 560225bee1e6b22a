#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "analysis/event_trace.hh"
#include "bench_support/trial_pool.hh"
#include "kernel/system.hh"
#include "workload/microbench.hh"

using namespace klebsim;
using bench::TrialPool;
using bench::splitmix64;
using bench::trialSeed;

namespace
{

/**
 * One small full-simulation trial: fresh machine, seeded workload,
 * full event trace.  Returns the trace fingerprint — the strongest
 * observable a trial has (every schedule/dispatch the run made).
 */
std::uint64_t
traceFingerprint(std::uint64_t seed)
{
    kernel::System sys(hw::MachineConfig::corei7_920(), seed);
    analysis::EventTrace trace;
    sys.eq().addListener(&trace);
    workload::FixedWorkSource src =
        workload::computeSource(20, 100000, 2.0);
    kernel::Process *p =
        sys.kernel().createWorkload("w", &src, 0);
    sys.kernel().startProcess(p);
    sys.run();
    std::uint64_t fp = trace.fingerprint();
    sys.eq().removeListener(&trace);
    return fp;
}

} // namespace

TEST(TrialPool, DefaultJobsIsPositive)
{
    EXPECT_GE(TrialPool::defaultJobs(), 1u);
    EXPECT_EQ(TrialPool(0).jobs(), TrialPool::defaultJobs());
    EXPECT_EQ(TrialPool(7).jobs(), 7u);
}

TEST(TrialPool, MapCommitsResultsInTrialOrder)
{
    TrialPool pool(4);
    std::vector<std::size_t> out =
        pool.map(100, [](std::size_t i) { return i * 3; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * 3);
}

TEST(TrialPool, ParallelMatchesSequentialOnFullSimTrials)
{
    // The determinism guarantee the benches rely on: jobs=1 and
    // jobs=8 produce identical result vectors, verified with full
    // EventTrace fingerprints of independent simulated machines.
    auto trial = [](std::size_t i) {
        return traceFingerprint(trialSeed(42, 0, i));
    };
    std::vector<std::uint64_t> sequential =
        TrialPool(1).map(6, trial);
    std::vector<std::uint64_t> parallel =
        TrialPool(8).map(6, trial);
    EXPECT_EQ(sequential, parallel);

    // Distinct trials are genuinely distinct machines.
    std::set<std::uint64_t> distinct(sequential.begin(),
                                     sequential.end());
    EXPECT_EQ(distinct.size(), sequential.size());
}

TEST(TrialPool, MoreJobsThanTrials)
{
    TrialPool pool(16);
    std::vector<std::size_t> out =
        pool.map(3, [](std::size_t i) { return i + 1; });
    EXPECT_EQ(out, (std::vector<std::size_t>{1, 2, 3}));

    // Zero trials is a no-op.
    EXPECT_TRUE(pool.map(0, [](std::size_t i) { return i; })
                    .empty());
}

TEST(TrialPool, ExceptionInTrialPropagates)
{
    TrialPool pool(4);
    EXPECT_THROW(
        pool.runIndexed(16,
                        [](std::size_t i) {
                            if (i == 5)
                                throw std::runtime_error("trial 5");
                        }),
        std::runtime_error);

    // Sequential path (jobs=1) propagates too, and stops at the
    // failing trial.
    std::atomic<std::size_t> ran{0};
    TrialPool seq(1);
    EXPECT_THROW(seq.runIndexed(10,
                                [&](std::size_t i) {
                                    if (i == 3)
                                        throw std::runtime_error(
                                            "trial 3");
                                    ++ran;
                                }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 3u);
}

TEST(TrialPool, ExceptionMessageIsLowestIndexed)
{
    // With failures on several trials, the rethrown one must be the
    // lowest-indexed — what a sequential run would have hit first.
    TrialPool pool(4);
    try {
        pool.runIndexed(32, [](std::size_t i) {
            if (i % 2 == 1)
                throw std::runtime_error(
                    "trial " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "trial 1");
    }
}

TEST(TrialPool, SeedMixerDecorrelatesAdjacentTrials)
{
    // Reference splitmix64 vector (seed 0, first output).
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);

    // Adjacent trials, adjacent streams, and adjacent bases must
    // all land on distinct seeds.
    std::set<std::uint64_t> seeds;
    for (std::uint64_t base = 0; base < 4; ++base)
        for (std::uint64_t stream = 0; stream < 6; ++stream)
            for (std::uint64_t trial = 0; trial < 32; ++trial)
                seeds.insert(trialSeed(base, stream, trial));
    EXPECT_EQ(seeds.size(), 4u * 6u * 32u);

    // And must not be the old correlated base+trial derivation.
    EXPECT_NE(trialSeed(1, 0, 1), 2u);
    EXPECT_NE(trialSeed(1, 0, 1), trialSeed(1, 0, 0) + 1);
}

TEST(TrialPool, TryMapRecordsFailuresInAscendingOrder)
{
    TrialPool pool(4);
    std::vector<bench::TrialFailure> failures;
    auto slots = pool.tryMap(
        12,
        [](std::size_t i) -> std::size_t {
            if (i % 3 == 1)
                throw std::runtime_error("died on trial " +
                                         std::to_string(i));
            return i * i;
        },
        &failures);

    ASSERT_EQ(slots.size(), 12u);
    ASSERT_EQ(failures.size(), 4u); // trials 1, 4, 7, 10
    for (std::size_t f = 0; f + 1 < failures.size(); ++f)
        EXPECT_LT(failures[f].trial, failures[f + 1].trial);
    for (const auto &f : failures) {
        EXPECT_EQ(f.trial % 3, 1u);
        EXPECT_FALSE(slots[f.trial].has_value());
        EXPECT_NE(f.message.find(std::to_string(f.trial)),
                  std::string::npos);
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (i % 3 == 1)
            continue;
        ASSERT_TRUE(slots[i].has_value());
        EXPECT_EQ(*slots[i], i * i);
    }
}

TEST(TrialPool, ShardDeterminismSurvivesWorkerDeath)
{
    // The fleet contract: a shard whose trial dies must never
    // perturb any surviving shard's result.  Sweep 16 base seeds;
    // for each, compare a healthy full-sim run against a run where
    // some trials throw mid-pool, at different jobs values.
    constexpr std::size_t trials = 6;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        TrialPool healthy_pool(1);
        auto healthy = healthy_pool.map(trials, [&](std::size_t i) {
            return traceFingerprint(trialSeed(seed, 0xdead, i));
        });

        // Seed-dependent casualty pattern so the sweep covers
        // first/middle/last-trial death.
        auto dies = [&](std::size_t i) {
            return splitmix64(seed ^ i) % 3 == 0;
        };

        TrialPool pool(4);
        std::vector<bench::TrialFailure> failures;
        auto slots = pool.tryMap(
            trials,
            [&](std::size_t i) {
                if (dies(i))
                    throw std::runtime_error("worker death");
                return traceFingerprint(trialSeed(seed, 0xdead, i));
            },
            &failures);

        std::size_t expected_dead = 0;
        for (std::size_t i = 0; i < trials; ++i)
            if (dies(i))
                ++expected_dead;
        EXPECT_EQ(failures.size(), expected_dead)
            << "seed " << seed;

        for (std::size_t i = 0; i < trials; ++i) {
            if (dies(i)) {
                EXPECT_FALSE(slots[i].has_value())
                    << "seed " << seed << " trial " << i;
            } else {
                ASSERT_TRUE(slots[i].has_value())
                    << "seed " << seed << " trial " << i;
                EXPECT_EQ(*slots[i], healthy[i])
                    << "seed " << seed << " trial " << i
                    << ": surviving shard diverged";
            }
        }
    }
}
