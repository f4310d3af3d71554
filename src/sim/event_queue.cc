#include "sim/event_queue.h"

namespace exist {

bool
EventQueue::isCancelled(EventId id)
{
    auto it = std::find(cancelled_.begin(), cancelled_.end(), id);
    if (it == cancelled_.end())
        return false;
    *it = cancelled_.back();
    cancelled_.pop_back();
    return true;
}

void
EventQueue::popDead()
{
    if (cancelled_.empty())
        return;
    while (!heap_.empty() && isCancelled(heap_.front().key.id)) {
        std::pop_heap(heap_.begin(), heap_.end(), firesLater);
        heap_.pop_back();
        --live_;
    }
}

EventKey
EventQueue::nextKey()
{
    popDead();
    return heap_.empty() ? EventKey{kMaxTime, kInvalidEvent}
                         : heap_.front().key;
}

void
EventQueue::advanceTo(Cycles when)
{
    EXIST_ASSERT(when >= now_, "event queue time went backwards");
    now_ = when;
}

bool
EventQueue::step()
{
    popDead();
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), firesLater);
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    --live_;
    advanceTo(e.key.when);
    e.cb();
    return true;
}

void
EventQueue::runUntil(Cycles until)
{
    while (true) {
        Cycles next = nextTime();
        if (next == kMaxTime || next > until)
            break;
        step();
    }
    if (now_ < until)
        now_ = until;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

}  // namespace exist
