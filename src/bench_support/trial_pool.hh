/**
 * @file
 * Parallel execution of independent bench trials and machine shards.
 *
 * Every overhead table and accuracy figure is N trials x M tools of
 * fully independent simulated machines, and every fleet run is
 * thousands of independent machine sims, so the benches and the
 * fleet runner fan that work out across host cores.  The contract is
 * strict determinism: a trial never shares state with another trial
 * (each builds a fresh kernel::System with its own sim::EventQueue),
 * per-trial seeds are derived by a splitmix64 mixer from
 * (baseSeed, stream, trialIndex) rather than from any execution
 * order, and results are committed in trial order — so any --jobs
 * value produces byte-identical tables, CSVs, and fleet digests.
 *
 * Execution model (machine-level parallelism, DESIGN.md section 17):
 * each run cuts [0, count) into contiguous shards of
 * max(1, count / (jobs * 32)) trials, starts min(jobs, shards) - 1
 * threads and joins them before it returns.  Every participant —
 * the caller included — claims shards in ascending order from one
 * atomic cursor until none is left, so a run with jobs == 1 (or one
 * shard) runs every trial on the caller, in index order, with no
 * thread.  Which participant runs which shard is scheduling noise
 * by design; no result may depend on it.
 */

#ifndef KLEBSIM_BENCH_SUPPORT_TRIAL_POOL_HH
#define KLEBSIM_BENCH_SUPPORT_TRIAL_POOL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace klebsim::bench
{

/**
 * splitmix64 finalizer (Steele et al., "Fast Splittable Pseudorandom
 * Number Generators").  Bijective and well mixed; the single mixer
 * every per-trial seed derivation routes through.
 */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * The per-trial seed for trial @p trial of stream @p stream (e.g. a
 * ToolKind or sweep-point index) under @p base.  Unlike the old
 * `base + trial` derivation this decorrelates adjacent trials: each
 * (base, stream, trial) triple lands in an unrelated part of the
 * splitmix64 sequence instead of an adjacent PCG32 stream.
 */
constexpr std::uint64_t
trialSeed(std::uint64_t base, std::uint64_t stream,
          std::uint64_t trial)
{
    return splitmix64(splitmix64(splitmix64(base) ^ stream) ^
                      trial);
}

/**
 * One trial that died: its index and the exception text.  Returned
 * by the crash-tolerant tryMap()/runIndexedCatching() entry points
 * in ascending trial order.
 */
struct TrialFailure
{
    std::size_t trial = 0;
    std::string message;
};

/**
 * Runs independent trials on up to jobs() host threads.
 *
 * Trials are executed shard-wise off one atomic cursor (see the
 * file comment); which thread runs which trial is scheduling noise
 * by design, because a trial's result may depend only on its index.
 * An exception thrown by a trial suppresses the execution of all
 * higher-indexed trials and is rethrown to the caller once every
 * lower-indexed trial has finished — so the rethrown failure is
 * exactly the one a sequential run would have hit first.
 *
 * The tryMap()/runIndexedCatching() variants instead survive worker
 * death: a trial that throws is recorded as a TrialFailure and every
 * other trial still runs to completion.  Because a trial's result
 * may depend only on its index, a dead shard can never perturb the
 * results of the surviving shards — fleet-scale callers rely on
 * this to turn a crashed machine into an explicit hole instead of a
 * lost run.
 *
 * A pool holds no threads between runs and may be reused or shared
 * by concurrent callers; each run starts and joins its own.
 */
class TrialPool
{
  public:
    /** @param jobs worker count; 0 means defaultJobs(). */
    explicit TrialPool(unsigned jobs = 0);

    /** Host parallelism (hardware_concurrency, at least 1). */
    static unsigned defaultJobs();

    unsigned jobs() const { return jobs_; }

    /**
     * Invoke @p fn(i) for every i in [0, count); results are
     * returned in trial order regardless of completion order.
     */
    template <typename Fn>
    auto
    map(std::size_t count, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
    {
        using T = std::invoke_result_t<Fn &, std::size_t>;
        std::vector<std::optional<T>> slots(count);
        // Each slot belongs to exactly one trial index, so workers
        // write disjoint slots and need no lock.
        runIndexed(count,
                   [&](std::size_t i) { slots[i].emplace(fn(i)); });
        std::vector<T> results;
        results.reserve(count);
        for (std::optional<T> &slot : slots)
            results.push_back(std::move(*slot));
        return results;
    }

    /**
     * Crash-tolerant map: invoke @p fn(i) for every i in
     * [0, count).  A trial that throws leaves its slot empty and is
     * reported in @p failures (ascending trial order) instead of
     * aborting the dispatch; all surviving slots hold exactly the
     * value a fully healthy run would have produced.
     */
    template <typename Fn>
    auto
    tryMap(std::size_t count, Fn &&fn,
           std::vector<TrialFailure> *failures)
        -> std::vector<
            std::optional<std::invoke_result_t<Fn &, std::size_t>>>
    {
        using T = std::invoke_result_t<Fn &, std::size_t>;
        std::vector<std::optional<T>> slots(count);
        runIndexedCatching(
            count, [&](std::size_t i) { slots[i].emplace(fn(i)); },
            failures);
        return slots;
    }

    /** Invoke @p fn(i) for every i in [0, count), no results. */
    void runIndexed(std::size_t count,
                    const std::function<void(std::size_t)> &fn);

    /**
     * Like runIndexed(), but a throwing trial is captured into
     * @p failures and the remaining trials still run.
     */
    void runIndexedCatching(
        std::size_t count,
        const std::function<void(std::size_t)> &fn,
        std::vector<TrialFailure> *failures);

  private:
    /** Dispatch one run across min(jobs, shards) participants. */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &fn,
             std::vector<TrialFailure> *failures, bool catching);

    unsigned jobs_;
};

} // namespace klebsim::bench

#endif // KLEBSIM_BENCH_SUPPORT_TRIAL_POOL_HH
