/**
 * @file
 * Work-stealing thread pool for the offline stages of the pipeline
 * (trace decoding, cluster reconcile fan-out). The paper's design
 * pushes all heavy work off the traced node into the decoder, so the
 * decoder's throughput — not capture — bounds end-to-end observability;
 * per-core ToPA buffers are independent by construction, which makes
 * that work embarrassingly parallel.
 *
 * Shape: fixed worker threads, one deque per worker. A worker pops its
 * own deque LIFO (cache-warm) and steals FIFO from a victim when empty.
 * Tasks submitted from a worker thread go to that worker's deque; tasks
 * submitted from outside are distributed round-robin. Exceptions
 * propagate to the caller through the returned futures. Destruction
 * drains every queued task before joining, so submitted work is never
 * silently dropped.
 */
#ifndef EXIST_RUNTIME_THREAD_POOL_H
#define EXIST_RUNTIME_THREAD_POOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/thread_annotations.h"

namespace exist {

class ThreadPool
{
  public:
    /** threads == 0 picks defaultThreads(). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int size() const { return static_cast<int>(workers_.size()); }

    /** Tasks executed so far (by workers or by helping waiters). A
     *  task counts before it fulfils its future, so a caller whose
     *  wait returned sees it here. */
    std::uint64_t tasksRun() const
    {
        return tasks_run_.load(std::memory_order_relaxed);
    }
    /** Tasks taken from another worker's deque (load-balance events —
     *  a coarse skew signal for the control-plane metrics). */
    std::uint64_t steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

    /** Hardware concurrency, clamped to at least 1. */
    static int defaultThreads();

    /** Process-wide pool of defaultThreads() workers, built lazily.
     *  Shared by every decode/reconcile site that does not request a
     *  specific width, so nested parallelism queues instead of
     *  oversubscribing. */
    static ThreadPool &shared();

    /** Schedule a callable; the future carries its result or its
     *  exception. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        push([task]() { (*task)(); });
        return fut;
    }

    /**
     * Run body(i) for every i in [begin, end) and block until all
     * complete. Runs inline for single-worker pools or trivial ranges.
     * The calling thread helps execute queued tasks while it waits, so
     * a worker may call parallelFor without deadlocking its own pool.
     * The first exception thrown by any iteration is rethrown here.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)> &body);

  private:
    using Task = std::function<void()>;

    struct WorkerDeque {
        Mutex mu{lockorder::LockRank::kPool, "pool.deque"};
        std::deque<Task> tasks EXIST_GUARDED_BY(mu);
    };

    void push(Task task);
    void workerLoop(std::size_t index);
    /** Pop from own deque, else steal; false if everything is empty. */
    bool takeTask(std::size_t home, Task &out);
    bool popLocal(std::size_t index, Task &out);
    bool stealFrom(std::size_t victim, Task &out);

    std::vector<std::unique_ptr<WorkerDeque>> deques_;
    std::vector<std::thread> workers_;

    // queued_ counts tasks visible in the deques: incremented BEFORE
    // the task is pushed, decremented after it is taken, so it can
    // never underflow when a worker races a push. stop_ is flipped
    // under idle_mu_ before notifying so sleepers cannot miss it; a
    // producer takes idle_mu_ (even empty) between bumping queued_ and
    // notifying for the same reason.
    Mutex idle_mu_{lockorder::LockRank::kPool, "pool.idle"};
    CondVar idle_cv_;
    std::atomic<std::size_t> queued_{0};
    std::atomic<std::size_t> next_queue_{0};
    std::atomic<bool> stop_{false};

    // Telemetry (relaxed: trend counters, not synchronization).
    std::atomic<std::uint64_t> tasks_run_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> task_seq_{0};  ///< pool.task span ids
};

}  // namespace exist

#endif  // EXIST_RUNTIME_THREAD_POOL_H
