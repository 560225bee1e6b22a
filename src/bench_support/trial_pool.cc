#include "trial_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "base/thread_safety.hh"

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

/** Where one run's participants record the trials that threw. */
struct FailureSlot
{
    TrackedMutex mutex;

    /** @{ Non-catching runs: the lowest-index failure so far. */
    std::exception_ptr firstError KLEB_GUARDED_BY(mutex);
    std::size_t firstTrial KLEB_GUARDED_BY(mutex) = ~std::size_t{0};
    /** @} */

    /** Catching runs: every failure, in completion order. */
    std::vector<TrialFailure> failures KLEB_GUARDED_BY(mutex);
};

} // anonymous namespace

TrialPool::TrialPool(unsigned jobs)
    : jobs_(jobs ? jobs : defaultJobs())
{
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

    // 32 shards per participant, so the last shards are small and no
    // participant idles long while another finishes a big one.  The
    // split is a pure function of (count, jobs_).
    const std::size_t shardSize =
        std::max<std::size_t>(1, count / (std::size_t{jobs_} * 32));
    const std::size_t numShards = (count + shardSize - 1) / shardSize;

    std::atomic<std::size_t> cursor{0};
    // Lowest failing trial so far; non-catching runs skip every
    // trial at or above it.  ~0 = no failure.
    std::atomic<std::size_t> failureFloor{~std::size_t{0}};
    FailureSlot slot;

    auto participate = [&] {
        for (;;) {
            const std::size_t s =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (s >= numShards)
                return;
            const std::size_t end =
                std::min(count, (s + 1) * shardSize);
            for (std::size_t i = s * shardSize; i < end; ++i) {
                if (!catching &&
                    i >= failureFloor.load(std::memory_order_relaxed))
                    break;
                try {
                    fn(i);
                } catch (...) {
                    if (catching) {
                        TrackedLock lock(slot.mutex);
                        slot.failures.push_back(
                            {i, describeCurrentException()});
                        continue;
                    }
                    // Keep every lower trial running: whichever
                    // failure ends up lowest is exactly the one a
                    // sequential run would have surfaced first.
                    std::size_t floor =
                        failureFloor.load(std::memory_order_relaxed);
                    while (i < floor &&
                           !failureFloor.compare_exchange_weak(
                               floor, i, std::memory_order_relaxed)) {
                    }
                    TrackedLock lock(slot.mutex);
                    if (i < slot.firstTrial) {
                        slot.firstTrial = i;
                        slot.firstError = std::current_exception();
                    }
                }
            }
        }
    };

    // The caller is the first participant.  Starting and joining the
    // threads orders every access to the run's state above; a
    // jthread also joins if a thread fails to start.
    const std::size_t participants =
        std::min<std::size_t>(jobs_, numShards);
    std::vector<std::jthread> helpers;
    helpers.reserve(participants - 1);
    while (helpers.size() + 1 < participants)
        helpers.emplace_back(participate);
    participate();
    for (std::jthread &t : helpers)
        t.join();

    TrackedLock lock(slot.mutex);
    if (catching) {
        // Completion order is scheduling noise; report failures in
        // trial order so the caller's view is jobs-invariant.
        std::sort(slot.failures.begin(), slot.failures.end(),
                  [](const TrialFailure &a, const TrialFailure &b) {
                      return a.trial < b.trial;
                  });
        if (failures)
            failures->insert(failures->end(), slot.failures.begin(),
                             slot.failures.end());
    } else if (slot.firstError) {
        std::rethrow_exception(slot.firstError);
    }
}

} // namespace klebsim::bench
