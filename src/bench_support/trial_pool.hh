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
 * the pool owns persistent worker threads, spawned lazily on the
 * first parallel call and parked on a condition variable between
 * calls, so back-to-back runIndexed() invocations pay no thread
 * spawn/join cost (the BM_TrialPoolMap regression this replaced:
 * 48 us of pthread churn per 64-trial map at --jobs 4).  Work is
 * distributed as contiguous index shards over per-participant
 * work-stealing deques: each participant pops shards from the front
 * of its own deque (ascending index order) and, when empty, steals
 * from the back of a victim's deque.  The caller participates as
 * worker 0, so a pool whose workers are busy elsewhere — or a
 * single-core host — degrades to the caller draining every deque
 * itself with nothing but uncontended mutex traffic on top of the
 * sequential path.  Which participant runs which shard is
 * scheduling noise by design; no result may depend on it.
 */

#ifndef KLEBSIM_BENCH_SUPPORT_TRIAL_POOL_HH
#define KLEBSIM_BENCH_SUPPORT_TRIAL_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/thread_safety.hh"

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
 * A persistent worker-thread pool that runs independent trials.
 *
 * Trials are executed shard-wise off per-participant work-stealing
 * deques (see the file comment); which worker runs which trial is
 * scheduling noise by design, because a trial's result may depend
 * only on its index.  An exception thrown by a trial suppresses the
 * execution of all higher-indexed trials and is rethrown to the
 * caller once every lower-indexed trial has finished — so the
 * rethrown failure is exactly the one a sequential run would have
 * hit first, independent of how shards were stolen.
 *
 * The tryMap()/runIndexedCatching() variants instead survive worker
 * death: a trial that throws is recorded as a TrialFailure and every
 * other trial still runs to completion.  Because a trial's result
 * may depend only on its index, a dead shard can never perturb the
 * results of the surviving shards — fleet-scale callers rely on
 * this to turn a crashed machine into an explicit hole instead of a
 * lost run.
 *
 * A pool may be reused for any number of runs; one run executes at
 * a time (calls from concurrent threads are serialized by a mutex).
 * Workers are joined in the destructor.
 */
class TrialPool
{
  public:
    /** @param jobs worker count; 0 means defaultJobs(). */
    explicit TrialPool(unsigned jobs = 0);

    TrialPool(const TrialPool &) = delete;
    TrialPool &operator=(const TrialPool &) = delete;

    ~TrialPool();

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
    /** A contiguous run of trial indices, the unit of stealing. */
    struct Shard
    {
        std::size_t begin = 0;
        std::size_t end = 0;
    };

    /**
     * One participant's shard deque.  The owner pops from the front
     * (ascending index order); thieves steal from the back (the
     * indices the owner would reach last).  A plain mutex per deque
     * keeps the protocol obvious and machine-checkable; the lock is
     * taken once per shard, not per trial, so it is nowhere near
     * the trial hot path.
     */
    struct ShardDeque
    {
        TrackedMutex mutex;
        std::deque<Shard> shards KLEB_GUARDED_BY(mutex);
    };

    /** Shared state of the in-flight run. */
    struct Run
    {
        const std::function<void(std::size_t)> *fn = nullptr;

        /** Capture failures instead of suppressing later trials. */
        bool catching = false;

        /** Shards not yet fully executed (run done at zero). */
        std::atomic<std::size_t> shardsLeft{0};

        /**
         * Lowest failing trial index so far; trials at or above it
         * are suppressed in non-catching mode.  ~0 = no failure.
         */
        std::atomic<std::size_t> failureFloor{~std::size_t{0}};

        TrackedMutex failMutex;
        std::exception_ptr firstError KLEB_GUARDED_BY(failMutex);
        std::size_t firstTrial KLEB_GUARDED_BY(failMutex) =
            ~std::size_t{0};
        std::vector<TrialFailure> failures
            KLEB_GUARDED_BY(failMutex);
    };

    /** Dispatch one run across the participants. */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &fn,
             std::vector<TrialFailure> *failures, bool catching);

    /** Spawn the persistent workers if not yet running. */
    void ensureWorkers();

    /** Park/wake loop each persistent worker runs. */
    void workerLoop(unsigned self);

    /** Pop own shards, then steal, until every deque is empty. */
    void participate(unsigned self);

    /** Execute one shard's trials under the run's failure rules. */
    void executeShard(const Shard &shard);

    unsigned jobs_;

    /** Worker 0 is the caller; deques_[1..] feed the threads. */
    std::vector<ShardDeque> deques_;
    std::vector<std::thread> threads_;

    /** Serializes run() against concurrent callers. */
    std::mutex runMutex_;

    /** @{ Park/wake signalling (epoch bumps on each new run). */
    std::mutex wakeMutex_;
    std::condition_variable wakeCv_;
    std::uint64_t epoch_ = 0;
    bool shutdown_ = false;
    /** @} */

    /** @{ Completion signalling (caller waits for shardsLeft==0). */
    std::mutex doneMutex_;
    std::condition_variable doneCv_;
    /** @} */

    Run job_;
};

} // namespace klebsim::bench

#endif // KLEBSIM_BENCH_SUPPORT_TRIAL_POOL_HH
