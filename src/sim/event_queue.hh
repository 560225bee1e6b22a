/**
 * @file
 * Deterministic discrete-event queue — the heartbeat of the
 * simulated machine.
 *
 * Modeled on gem5's EventQueue: events are scheduled at absolute
 * Ticks; same-tick events are ordered by priority, then by schedule
 * order (FIFO), so simulation runs are fully deterministic.
 *
 * The pending set is a gem5-style two-level intrusive structure: a
 * singly linked list of *bins*, one per distinct (tick, priority)
 * pair in queue order, where each bin head chains its same-key
 * events FIFO (or in tie-break-salt order when a salt is active).
 * Schedule/deschedule of the dominant near-head timer events is
 * O(1) amortized and allocation-free — no tree nodes, no
 * rebalancing, no comparator indirection.  One-shot lambda events
 * are recycled through a wrapper freelist, so the steady-state
 * 100 µs timer tick performs zero heap allocations.
 */

#ifndef KLEBSIM_SIM_EVENT_QUEUE_HH
#define KLEBSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.hh"
#include "inline_callable.hh"

namespace klebsim::sim
{

class EventQueue;
class EventQueueListener;

/**
 * Base class for schedulable events.  Derive and implement
 * process(); or use EventFunctionWrapper for lambda-backed events.
 *
 * An Event object may be scheduled on at most one queue at a time.
 * The queue never takes ownership except via scheduleLambda().
 */
class Event
{
  public:
    /**
     * Same-tick ordering classes (lower value runs first).  The
     * default leaves headroom both ways for device-specific needs.
     */
    enum Priority : int
    {
        timerPriority = -20,     //!< hardware timer expiry
        interruptPriority = -10, //!< interrupt delivery
        defaultPriority = 0,
        schedulerPriority = 10,  //!< OS scheduler decisions
        statsPriority = 20,      //!< bookkeeping after state settles
    };

    explicit Event(int priority = defaultPriority);
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called when the event's scheduled tick is reached. */
    virtual void process() = 0;

    /** Descriptive name for debugging. */
    virtual std::string name() const { return "event"; }

    /** True while the event sits in a queue. */
    bool scheduled() const { return queue_ != nullptr; }

    /** Tick the event will fire at (valid only while scheduled). */
    Tick when() const { return when_; }

    int priority() const { return priority_; }

    /**
     * Monotonic schedule-order stamp, assigned at schedule() time.
     * Same-tick same-priority events dispatch in seq order (FIFO);
     * trace tooling records it to pin down total event order.
     */
    std::uint64_t seq() const { return seq_; }

    /**
     * If true, the queue deletes (or recycles) the event after
     * process() returns (used by scheduleLambda's wrappers).
     */
    bool autoDelete() const { return autoDelete_; }

  protected:
    void setAutoDelete(bool v) { autoDelete_ = v; }
    void setPriority(int p) { priority_ = p; }

  private:
    friend class EventQueue;

    int priority_;
    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    EventQueue *queue_ = nullptr;
    bool autoDelete_ = false;
    bool pooled_ = false; //!< recyclable scheduleLambda wrapper

    /**
     * @{ Intrusive two-level queue links.  nextBin_ chains bin
     * heads in (when, priority) order; nextInBin_ chains a bin's
     * same-key events; binTail_ (bin heads only) caches the chain
     * tail for O(1) FIFO append.  All null while unscheduled.
     */
    Event *nextBin_ = nullptr;
    Event *nextInBin_ = nullptr;
    Event *binTail_ = nullptr;
    /** @} */
};

/** Event that invokes a stored callable. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(InlineCallable fn,
                         std::string name = "lambda-event",
                         int priority = defaultPriority);

    void process() override;
    std::string name() const override { return name_; }

  private:
    friend class EventQueue;

    /** Re-initialize a recycled wrapper (freelist reuse). */
    void rearm(InlineCallable fn, std::string_view name,
               int priority);

    InlineCallable fn_;
    std::string name_;
    EventFunctionWrapper *poolNext_ = nullptr; //!< freelist link
};

/**
 * Observer interface for queue activity (see src/analysis/).
 *
 * Listeners see every schedule, deschedule and dispatch as it
 * happens.  They must not mutate the queue from inside a callback;
 * they exist so correctness tooling (event tracing, invariant
 * checking, the determinism harness) can watch the machine without
 * perturbing it.  With no listener attached the queue skips the
 * notification paths entirely, so tracing costs nothing when off.
 */
class EventQueueListener
{
  public:
    virtual ~EventQueueListener() = default;

    /** @p ev was inserted, to fire at ev.when(). */
    virtual void onSchedule(const Event &ev, Tick now)
    { (void)ev; (void)now; }

    /** @p ev was removed without firing. */
    virtual void onDeschedule(const Event &ev, Tick now)
    { (void)ev; (void)now; }

    /** @p ev is about to run; now == ev.when(). */
    virtual void onDispatch(const Event &ev, Tick now)
    { (void)ev; (void)now; }
};

/**
 * The global-ordering event queue.  Single-threaded by design; the
 * simulated machine owns exactly one, and trials never share a
 * machine (bench_support/trial_pool.hh).
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** Schedule @p ev at absolute tick @p when (>= curTick). */
    void schedule(Event *ev, Tick when);

    /** Remove @p ev from the queue; it must be scheduled here. */
    void deschedule(Event *ev);

    /** Deschedule (if needed) and re-schedule at @p when. */
    void reschedule(Event *ev, Tick when);

    /**
     * One-shot convenience: wrap @p fn in a queue-owned event,
     * schedule it, and let the queue reclaim it after it fires.
     * Wrappers are recycled through an internal freelist, so the
     * steady state allocates nothing.
     * @return the wrapper (so callers may deschedule early; doing so
     *         transfers reclamation responsibility back to the queue
     *         via cancelLambda()).
     */
    Event *scheduleLambda(Tick when, InlineCallable fn,
                          int priority = Event::defaultPriority,
                          std::string_view name = "lambda-event");

    /** Deschedule and reclaim a wrapper from scheduleLambda(). */
    void cancelLambda(Event *ev);

    /** True if no events are pending. */
    bool empty() const { return head_ == nullptr; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Tick of the next pending event (maxTick if none). */
    Tick nextTick() const;

    /** Process exactly one event. @return false if queue was empty. */
    bool runOne();

    /**
     * Run events until simulated time would exceed @p limit.  Events
     * scheduled exactly at @p limit are processed.
     * @return number of events processed.
     */
    std::uint64_t runUntil(Tick limit);

    /** Run until the queue is empty. @return events processed. */
    std::uint64_t runAll();

    /** Total number of events ever processed. */
    std::uint64_t eventsProcessed() const { return processed_; }

    /** @{ Correctness-tooling hooks (see src/analysis/). */

    /** Attach @p l; it sees every schedule/deschedule/dispatch. */
    void addListener(EventQueueListener *l);

    /** Detach @p l (no-op if not attached). */
    void removeListener(EventQueueListener *l);

    /**
     * Perturb the same-tick same-priority tie-break.  With salt 0
     * (the default) ties dispatch in schedule order — the FIFO
     * contract every module may rely on.  A non-zero salt reorders
     * ties by a deterministic hash of (seq, salt) instead; the
     * determinism harness uses this to detect modules whose results
     * secretly depend on FIFO order between same-priority events.
     * Pending events are re-linked in place under the new salt (the
     * pending multiset is preserved; only same-bin order changes).
     */
    void setTieBreakSalt(std::uint64_t salt);

    std::uint64_t tieBreakSalt() const { return tieSalt_; }

    /** @} */

  private:
    /** Tie-break mix: identity under salt 0, splitmix64 otherwise. */
    static std::uint64_t mixSeq(std::uint64_t seq, std::uint64_t salt);

    /** True when @p a's bin sorts strictly before @p b's key. */
    static bool
    binBefore(const Event *a, const Event *b)
    {
        if (a->when_ != b->when_)
            return a->when_ < b->when_;
        return a->priority_ < b->priority_;
    }

    bool hasListeners() const { return !listeners_.empty(); }

    /** Link @p ev into the two-level structure (stamps applied). */
    void insert(Event *ev);

    /** Unlink and return the front event (queue must not be empty). */
    Event *popHead();

    /** Unlink @p ev from wherever it sits (panics if absent). */
    void remove(Event *ev);

    /** Reclaim an auto-delete event (recycle pooled wrappers). */
    void releaseAuto(Event *ev);

    void dispatch(Event *ev);

    Event *head_ = nullptr;
    std::size_t size_ = 0;
    EventFunctionWrapper *freeWrappers_ = nullptr;
    Tick curTick_;
    std::uint64_t nextSeq_;
    std::uint64_t processed_;
    std::uint64_t tieSalt_ = 0;
    std::vector<EventQueueListener *> listeners_;
};

} // namespace klebsim::sim

#endif // KLEBSIM_SIM_EVENT_QUEUE_HH
