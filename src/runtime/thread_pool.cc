#include "runtime/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/trace_plane.h"
#include "util/logging.h"

namespace exist {

namespace {

/** Which pool (if any) owns the current thread: local pushes and
 *  steal scans start from the worker's own deque. */
struct WorkerBinding {
    ThreadPool *pool = nullptr;
    std::size_t index = 0;
};
thread_local WorkerBinding t_binding;

}  // namespace

int
ThreadPool::defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool(defaultThreads());
    return pool;
}

ThreadPool::ThreadPool(int threads)
{
    int n = threads > 0 ? threads : defaultThreads();
    deques_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        deques_.push_back(std::make_unique<WorkerDeque>());
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back(
            [this, i]() { workerLoop(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lk(idle_mu_);
        stop_.store(true, std::memory_order_relaxed);
    }
    idle_cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    EXIST_ASSERT(queued_.load() == 0,
                 "thread pool destroyed with %llu tasks undrained",
                 (unsigned long long)queued_.load());
}

void
ThreadPool::push(Task task)
{
    // Correlate the submit site with whichever worker eventually runs
    // the task: a flow-begin here, a span + flow-end around execution.
    std::uint64_t span_id =
        obs::corrId(reinterpret_cast<std::uint64_t>(this),
                    task_seq_.fetch_add(1, std::memory_order_relaxed));
    obs::flowBegin("pool.task", span_id);
    // Counted before fn() fulfils the caller's future (tasksRun()).
    Task wrapped = [this, span_id, fn = std::move(task)]() {
        EXIST_SPAN("pool.task", span_id);
        obs::flowEnd("pool.task", span_id);
        tasks_run_.fetch_add(1, std::memory_order_relaxed);
        fn();
    };
    task = std::move(wrapped);

    std::size_t q;
    if (t_binding.pool == this) {
        q = t_binding.index;
    } else {
        q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
            deques_.size();
    }
    // Count the task before it becomes stealable: a worker that takes
    // it the instant the deque lock drops must not decrement queued_
    // below zero (the old post-push increment could transiently wrap
    // the counter and trip the drained-shutdown assert).
    queued_.fetch_add(1, std::memory_order_relaxed);
    {
        WorkerDeque &d = *deques_[q];
        MutexLock lk(d.mu);
        d.tasks.push_back(std::move(task));
    }
    {
        // Empty critical section: pairs with the sleeper's predicate
        // check under idle_mu_, so the increment above is visible
        // before notify and no wakeup is lost.
        MutexLock lk(idle_mu_);
    }
    idle_cv_.notify_one();
}

bool
ThreadPool::popLocal(std::size_t index, Task &out)
{
    WorkerDeque &d = *deques_[index];
    MutexLock lk(d.mu);
    if (d.tasks.empty())
        return false;
    out = std::move(d.tasks.back());
    d.tasks.pop_back();
    return true;
}

bool
ThreadPool::stealFrom(std::size_t victim, Task &out)
{
    WorkerDeque &d = *deques_[victim];
    MutexLock lk(d.mu);
    if (d.tasks.empty())
        return false;
    out = std::move(d.tasks.front());
    d.tasks.pop_front();
    return true;
}

bool
ThreadPool::takeTask(std::size_t home, Task &out)
{
    if (popLocal(home, out)) {
        queued_.fetch_sub(1, std::memory_order_relaxed);
        return true;
    }
    std::size_t n = deques_.size();
    for (std::size_t k = 1; k < n; ++k) {
        if (stealFrom((home + k) % n, out)) {
            queued_.fetch_sub(1, std::memory_order_relaxed);
            steals_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t index)
{
    t_binding = WorkerBinding{this, index};
    char name[32];
    std::snprintf(name, sizeof(name), "pool.worker.%zu", index);
    obs::setThreadName(name);
    Task task;
    for (;;) {
        if (takeTask(index, task)) {
            task();
            task = nullptr;
            continue;
        }
        // Nothing queued anywhere. Exit only when stopping: a task
        // still running on another worker may push follow-up work, but
        // that worker re-scans after it, so drained shutdown holds.
        if (stop_.load(std::memory_order_relaxed))
            return;
        MutexLock lk(idle_mu_);
        while (!stop_.load(std::memory_order_relaxed) &&
               queued_.load(std::memory_order_relaxed) == 0)
            idle_cv_.wait(idle_mu_);
    }
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)> &body)
{
    if (begin >= end)
        return;
    EXIST_SPAN("pool.parallel_for", obs::corrId(begin, end));
    std::size_t n = end - begin;
    if (size() <= 1 || n == 1) {
        for (std::size_t i = begin; i < end; ++i)
            body(i);
        return;
    }

    // Chunk so stealing has granularity to balance skew without one
    // mutex acquisition per index.
    std::size_t chunks =
        std::min(n, static_cast<std::size_t>(size()) * 4);
    std::size_t per = n / chunks;
    std::size_t extra = n % chunks;

    std::vector<std::future<void>> futures;
    futures.reserve(chunks);
    std::size_t lo = begin;
    for (std::size_t c = 0; c < chunks; ++c) {
        std::size_t hi = lo + per + (c < extra ? 1 : 0);
        futures.push_back(submit([&body, lo, hi]() {
            for (std::size_t i = lo; i < hi; ++i)
                body(i);
        }));
        lo = hi;
    }

    // Help while waiting: run queued tasks (ours or anybody's) so a
    // worker blocked here cannot starve its own pool.
    std::size_t home = t_binding.pool == this ? t_binding.index : 0;
    Task task;
    for (std::future<void> &f : futures) {
        while (f.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
            if (takeTask(home, task)) {
                task();
                task = nullptr;
            } else {
                f.wait_for(std::chrono::microseconds(100));
            }
        }
    }
    for (std::future<void> &f : futures)
        f.get();  // rethrow the first failure
}

}  // namespace exist
