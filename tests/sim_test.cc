/**
 * @file
 * Unit tests for the discrete-event engine: ordering, cancellation,
 * and time advance semantics.
 */
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"

namespace exist {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTimeIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(10, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    int fired = 0;
    EventId id = q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.cancel(id);
    q.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    int fired = 0;
    EventId id = q.schedule(5, [&] { ++fired; });
    q.run();
    q.cancel(id);  // already fired; must not affect later events
    q.schedule(q.now() + 1, [&] { ++fired; });
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilAdvancesTime)
{
    EventQueue q;
    int fired = 0;
    q.schedule(100, [&] { ++fired; });
    q.runUntil(50);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.now(), 50u);
    q.runUntil(150);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 150u);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            q.scheduleAfter(5, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(q.now(), 45u);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Cycles seen = 0;
    q.schedule(10, [&] {
        q.scheduleAfter(7, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 17u);
}

TEST(EventQueue, NextTimeSkipsCancelled)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    q.schedule(25, [] {});
    q.cancel(id);
    EXPECT_EQ(q.nextTime(), 25u);
}

TEST(EventQueue, EmptyAfterDrain)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    q.schedule(1, [] {});
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.step());
}

/** Counts its copies; moving it counts nothing. */
struct CopyCounter {
    int *copies;
    explicit CopyCounter(int *c) : copies(c) {}
    CopyCounter(const CopyCounter &o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter &&) noexcept = default;
};

TEST(EventQueue, FiringMovesTheCallback)
{
    EventQueue q;
    int copies = 0;
    int fired = 0;
    // Out of time order, so the heap moves entries past each other.
    for (int i = 0; i < 8; ++i)
        q.schedule(static_cast<Cycles>(8 - i),
                   [c = CopyCounter(&copies), &fired] {
                       (void)c;
                       ++fired;
                   });
    q.run();
    EXPECT_EQ(fired, 8);
    EXPECT_EQ(copies, 0);
}

}  // namespace
}  // namespace exist
