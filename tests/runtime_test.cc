/**
 * @file
 * Work-stealing thread pool tests: scheduling reaches every worker,
 * skewed local queues get drained by stealing, exceptions travel
 * through futures, and shutdown drains queued work. Synchronization is
 * latches and atomics only — no sleeps, so the suite is deterministic
 * under TSan (ctest -L concurrency).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/thread_pool.h"

namespace exist {
namespace {

TEST(ThreadPool, SubmitReturnsResultThroughFuture)
{
    ThreadPool pool(2);
    auto f = pool.submit([]() { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultThreadsIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
    ThreadPool pool;
    EXPECT_EQ(pool.size(), ThreadPool::defaultThreads());
}

TEST(ThreadPool, TasksRunOnAllWorkers)
{
    constexpr int kWorkers = 4;
    ThreadPool pool(kWorkers);

    // Each task blocks until all kWorkers tasks have started, so no
    // thread can run two of them: every worker must pick one up
    // (directly or by stealing).
    std::latch all_started(kWorkers);
    std::mutex mu;
    std::set<std::thread::id> ids;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < kWorkers; ++i) {
        futures.push_back(pool.submit([&]() {
            {
                std::lock_guard<std::mutex> lk(mu);
                ids.insert(std::this_thread::get_id());
            }
            all_started.arrive_and_wait();
        }));
    }
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(ids.size(), static_cast<std::size_t>(kWorkers));
}

TEST(ThreadPool, StealingDrainsASkewedQueue)
{
    constexpr int kWorkers = 4;
    constexpr int kSubtasks = 64;
    ThreadPool pool(kWorkers);

    // The producer task enqueues kSubtasks from inside a worker (they
    // land on that worker's local deque) and then blocks until every
    // subtask has finished. The producer's thread is parked, so the
    // subtasks can only complete if other workers steal them.
    std::latch subtasks_done(kSubtasks);
    std::atomic<int> ran{0};
    std::mutex mu;
    std::set<std::thread::id> runners;
    std::thread::id producer_id;

    auto producer = pool.submit([&]() {
        producer_id = std::this_thread::get_id();
        for (int i = 0; i < kSubtasks; ++i) {
            pool.submit([&]() {
                {
                    std::lock_guard<std::mutex> lk(mu);
                    runners.insert(std::this_thread::get_id());
                }
                ran.fetch_add(1);
                subtasks_done.count_down();
            });
        }
        subtasks_done.wait();
    });
    producer.get();

    EXPECT_EQ(ran.load(), kSubtasks);
    EXPECT_FALSE(runners.empty());
    // Every subtask was stolen: the producer never ran one.
    EXPECT_EQ(runners.count(producer_id), 0u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    ThreadPool pool(2);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("decode failed"); });
    EXPECT_THROW(f.get(), std::runtime_error);

    // The pool survives a throwing task.
    auto g = pool.submit([]() { return 1; });
    EXPECT_EQ(g.get(), 1);
}

TEST(ThreadPool, ParallelForExceptionPropagates)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(0, 100,
                                  [](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("i37");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedWork)
{
    constexpr int kTasks = 200;
    std::atomic<int> ran{0};
    {
        ThreadPool pool(3);
        for (int i = 0; i < kTasks; ++i)
            pool.submit([&]() { ran.fetch_add(1); });
        // Destroy immediately: queued tasks must still run.
    }
    EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(0, kN,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyAndSingle)
{
    ThreadPool pool(2);
    std::atomic<int> hits{0};
    pool.parallelFor(5, 5, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 0);
    pool.parallelFor(7, 8, [&](std::size_t i) {
        EXPECT_EQ(i, 7u);
        hits.fetch_add(1);
    });
    EXPECT_EQ(hits.load(), 1);
}

TEST(ThreadPool, NestedParallelForFromWorkerDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> total{0};
    // Outer iterations run on pool workers; each runs an inner
    // parallelFor on the same pool, exercising the help-while-waiting
    // path that prevents self-deadlock.
    pool.parallelFor(0, 4, [&](std::size_t) {
        pool.parallelFor(0, 8,
                         [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, ExternalSubmittersRaceWorkersWithoutCounterWrap)
{
    // Regression: push() used to increment the pending-task counter
    // *after* publishing the task, so a fast worker could pop and
    // decrement first, transiently wrapping the counter past zero and
    // tripping the drained-shutdown assert. Hammer the push/pop race
    // from several external threads against a small pool; every task
    // must run and the pool must still shut down drained.
    constexpr int kSubmitters = 4;
    constexpr int kPerSubmitter = 500;
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        std::vector<std::thread> submitters;
        submitters.reserve(kSubmitters);
        for (int s = 0; s < kSubmitters; ++s)
            submitters.emplace_back([&]() {
                for (int i = 0; i < kPerSubmitter; ++i)
                    pool.submit([&]() { ran.fetch_add(1); });
            });
        for (auto &t : submitters)
            t.join();
        // Destructor drains whatever is still queued.
    }
    EXPECT_EQ(ran.load(), kSubmitters * kPerSubmitter);
}

TEST(ThreadPool, ManySmallTasksComplete)
{
    ThreadPool pool(4);
    constexpr int kTasks = 5000;
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i)
        futures.push_back(pool.submit([&]() { ran.fetch_add(1); }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, TasksRunIsExactWhenParallelForReturns)
{
    // A task is counted before it fulfils its future, so the moment
    // parallelFor returns all 16 of its chunks (one per index) show in
    // tasksRun(). Uneven bodies keep the helping caller busy while
    // workers finish the last chunks, which is when a count taken
    // after the future would still be missing.
    ThreadPool pool(4);
    std::atomic<int> hits{0};
    for (int round = 0; round < 5000; ++round) {
        std::uint64_t before = pool.tasksRun();
        pool.parallelFor(0, 16, [&](std::size_t i) {
            volatile int spin = 0;
            for (std::size_t k = 0; k < 200 * (i % 3); ++k)
                spin = spin + 1;
            hits.fetch_add(1);
        });
        ASSERT_EQ(pool.tasksRun() - before, 16u) << "round " << round;
    }
    EXPECT_EQ(hits.load(), 5000 * 16);
}

}  // namespace
}  // namespace exist
