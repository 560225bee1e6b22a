#include "trial_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>

namespace klebsim::bench
{

namespace
{

/** Render the in-flight exception as a one-line message. */
std::string
describeCurrentException()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "non-std::exception thrown";
    }
}

} // anonymous namespace

TrialPool::TrialPool(unsigned jobs)
    : jobs_(jobs ? jobs : defaultJobs()), deques_(jobs_)
{
}

TrialPool::~TrialPool()
{
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        shutdown_ = true;
    }
    wakeCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

unsigned
TrialPool::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
TrialPool::runIndexed(std::size_t count,
                      const std::function<void(std::size_t)> &fn)
{
    run(count, fn, nullptr, /*catching=*/false);
}

void
TrialPool::runIndexedCatching(
    std::size_t count, const std::function<void(std::size_t)> &fn,
    std::vector<TrialFailure> *failures)
{
    run(count, fn, failures, /*catching=*/true);
}

void
TrialPool::run(std::size_t count,
               const std::function<void(std::size_t)> &fn,
               std::vector<TrialFailure> *failures, bool catching)
{
    if (count == 0)
        return;

    if (jobs_ <= 1 || count == 1) {
        // Sequential reference path: no threads, exceptions
        // propagate directly from the failing trial (stopping the
        // loop there), or — catching — are recorded and skipped.
        for (std::size_t i = 0; i < count; ++i) {
            if (!catching) {
                fn(i);
                continue;
            }
            try {
                fn(i);
            } catch (...) {
                if (failures)
                    failures->push_back(
                        {i, describeCurrentException()});
            }
        }
        return;
    }

    std::lock_guard<std::mutex> serialize(runMutex_);
    ensureWorkers();

    // Shard [0, count) into contiguous runs, 32 per participant so
    // that stealing can still even out unequal trial costs near the
    // end of the run.  The split is a pure function of
    // (count, jobs_): which shard a trial lands in never depends on
    // scheduling, and a trial's result may depend only on its index
    // anyway.
    const std::size_t shardSize =
        std::max<std::size_t>(1, count / (std::size_t{jobs_} * 32));
    const std::size_t numShards =
        (count + shardSize - 1) / shardSize;

    job_.fn = &fn;
    job_.catching = catching;
    job_.failureFloor.store(~std::size_t{0},
                            std::memory_order_relaxed);
    {
        TrackedLock lock(job_.failMutex);
        job_.firstError = nullptr;
        job_.firstTrial = ~std::size_t{0};
        job_.failures.clear();
    }
    job_.shardsLeft.store(numShards, std::memory_order_relaxed);

    // Deal shards round-robin: participant p owns shards p, p+P,
    // ..., pushed front-to-back in ascending index order.  Pushing
    // under each deque's mutex publishes the job_ fields written
    // above to whichever thread later pops the shard.
    for (std::size_t s = 0; s < numShards; ++s) {
        const std::size_t begin = s * shardSize;
        const std::size_t end = std::min(begin + shardSize, count);
        ShardDeque &dq = deques_[s % jobs_];
        TrackedLock lock(dq.mutex);
        dq.shards.push_back(Shard{begin, end});
    }

    // Wake the parked workers, then drain shards as worker 0.
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        ++epoch_;
    }
    wakeCv_.notify_all();
    participate(0);

    // Workers may still be running stolen shards after every deque
    // empties; the run is over once every shard has executed.
    {
        std::unique_lock<std::mutex> lock(doneMutex_);
        doneCv_.wait(lock, [&] {
            return job_.shardsLeft.load(
                       std::memory_order_acquire) == 0;
        });
    }

    TrackedLock lock(job_.failMutex);
    if (catching) {
        // Completion order is scheduling noise; report failures in
        // trial order so the caller's view is jobs-invariant.
        std::sort(job_.failures.begin(), job_.failures.end(),
                  [](const TrialFailure &a, const TrialFailure &b) {
                      return a.trial < b.trial;
                  });
        if (failures)
            failures->insert(failures->end(),
                             job_.failures.begin(),
                             job_.failures.end());
        job_.failures.clear();
    } else if (job_.firstError) {
        std::exception_ptr first_error = job_.firstError;
        job_.firstError = nullptr;
        std::rethrow_exception(first_error);
    }
}

void
TrialPool::ensureWorkers()
{
    if (!threads_.empty())
        return;
    threads_.reserve(jobs_ - 1);
    for (unsigned w = 1; w < jobs_; ++w)
        threads_.emplace_back([this, w] { workerLoop(w); });
}

void
TrialPool::workerLoop(unsigned self)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(wakeMutex_);
            wakeCv_.wait(lock, [&] {
                return shutdown_ || epoch_ != seen;
            });
            if (shutdown_)
                return;
            seen = epoch_;
        }
        participate(self);
    }
}

void
TrialPool::participate(unsigned self)
{
    for (;;) {
        Shard shard;
        bool found = false;

        // Own deque first, front pop: ascending index order.
        {
            ShardDeque &own = deques_[self];
            TrackedLock lock(own.mutex);
            if (!own.shards.empty()) {
                shard = own.shards.front();
                own.shards.pop_front();
                found = true;
            }
        }

        // Then steal from the back of the first non-empty victim —
        // the indices its owner would reach last, keeping the
        // victim's front end uncontended.
        for (unsigned v = 1; v < jobs_ && !found; ++v) {
            ShardDeque &victim = deques_[(self + v) % jobs_];
            TrackedLock lock(victim.mutex);
            if (!victim.shards.empty()) {
                shard = victim.shards.back();
                victim.shards.pop_back();
                found = true;
            }
        }

        if (!found)
            return;

        executeShard(shard);

        if (job_.shardsLeft.fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
            // Last shard done.  Take doneMutex_ (empty critical
            // section) so the caller's predicate check and our
            // notify cannot interleave into a lost wakeup.
            std::lock_guard<std::mutex> lock(doneMutex_);
            doneCv_.notify_all();
        }
    }
}

void
TrialPool::executeShard(const Shard &shard)
{
    const std::function<void(std::size_t)> &fn = *job_.fn;
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
        if (!job_.catching &&
            i >= job_.failureFloor.load(std::memory_order_relaxed))
            continue;
        try {
            fn(i);
        } catch (...) {
            if (job_.catching) {
                TrackedLock lock(job_.failMutex);
                job_.failures.push_back(
                    {i, describeCurrentException()});
                continue;
            }
            // Suppress trials at or above the failing index but
            // keep every lower one running: whichever recorded
            // failure ends up lowest is exactly the one a
            // sequential run would have surfaced first, no matter
            // how the shards were stolen.
            std::size_t floor =
                job_.failureFloor.load(std::memory_order_relaxed);
            while (i < floor &&
                   !job_.failureFloor.compare_exchange_weak(
                       floor, i, std::memory_order_relaxed)) {
            }
            TrackedLock lock(job_.failMutex);
            if (i < job_.firstTrial) {
                job_.firstTrial = i;
                job_.firstError = std::current_exception();
            }
        }
    }
}

} // namespace klebsim::bench
