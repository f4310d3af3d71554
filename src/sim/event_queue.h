/**
 * @file
 * Discrete-event engine for the EXIST node simulation.
 *
 * The queue orders callbacks by (time, id), where ids come from one
 * counter in scheduling order, so events scheduled for the same cycle
 * fire in FIFO order, which keeps the simulation deterministic. An
 * owner may fire events of its own against the same order: it takes
 * their ids from reserveId() and sorts them against nextKey() (the
 * node kernel's per-core run slots, os/kernel.h).
 */
#ifndef EXIST_SIM_EVENT_QUEUE_H
#define EXIST_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/logging.h"
#include "util/types.h"

namespace exist {

/** Handle used to cancel a scheduled event. */
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/** Where an event sorts: by time, then by id (scheduling order). */
struct EventKey {
    Cycles when;
    EventId id;

    auto operator<=>(const EventKey &) const = default;
};

/**
 * Time-ordered queue of callbacks. A thin core that higher layers (the
 * OS kernel, load generators, the cluster master) schedule against.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current virtual time. */
    Cycles now() const { return now_; }

    /** Schedule a callback at absolute time `when` (>= now). */
    EventId
    schedule(Cycles when, Callback cb)
    {
        EXIST_ASSERT(when >= now_, "scheduling into the past: %llu < %llu",
                     (unsigned long long)when, (unsigned long long)now_);
        EventId id = reserveId();
        heap_.push_back(Entry{{when, id}, std::move(cb)});
        std::push_heap(heap_.begin(), heap_.end(), firesLater);
        ++live_;
        return id;
    }

    /** Schedule a callback `delay` cycles from now. */
    EventId
    scheduleAfter(Cycles delay, Callback cb)
    {
        return schedule(now_ + delay, std::move(cb));
    }

    /**
     * Take the next id from the counter schedule() draws from, queuing
     * nothing: the caller fires that event itself, in (time, id) order
     * against nextKey().
     */
    EventId reserveId() { return ++next_id_; }

    /** Cancel an event; a no-op if it has already fired. */
    void
    cancel(EventId id)
    {
        if (id != kInvalidEvent) {
            cancelled_.push_back(id);
            ++cancels_;
        }
    }

    /**
     * Moves whenever nextKey() may have moved other than by firing:
     * an id drawn (schedule() or reserveId()) or a cancel. A caller
     * that keeps nextKey() between its own fires re-reads it only when
     * this changed.
     */
    std::uint64_t version() const { return next_id_ + cancels_; }

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Key of the next pending event; {kMaxTime, kInvalidEvent} when
     *  empty. */
    EventKey nextKey();

    /** Time of the next pending event (kMaxTime when empty). */
    Cycles nextTime() { return nextKey().when; }

    /** Move the clock to `when` (>= now), firing nothing: the caller's
     *  own event is due then, or nothing is due before it. */
    void advanceTo(Cycles when);

    /** Fire a single event; returns false if the queue is empty. */
    bool step();

    /** Run until the queue drains or time reaches `until`. */
    void runUntil(Cycles until);

    /** Run until the queue drains. */
    void run();

    static constexpr Cycles kMaxTime = ~Cycles{0};

  private:
    struct Entry {
        EventKey key;
        Callback cb;
    };

    /** Heap order: the next event to fire sits at the front. */
    static bool
    firesLater(const Entry &a, const Entry &b)
    {
        return a.key > b.key;
    }

    bool isCancelled(EventId id);
    void popDead();

    std::vector<Entry> heap_;
    std::vector<EventId> cancelled_;
    Cycles now_ = 0;
    EventId next_id_ = kInvalidEvent;
    std::uint64_t cancels_ = 0;
    std::size_t live_ = 0;
};

}  // namespace exist

#endif  // EXIST_SIM_EVENT_QUEUE_H
