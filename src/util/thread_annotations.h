/**
 * @file
 * Clang thread-safety annotations (Envoy/abseil style) plus the
 * repo's annotated locking primitives. Every mutex in src/ is an
 * `exist::Mutex` and every guarded field carries EXIST_GUARDED_BY, so
 * a Clang build with -DEXIST_THREAD_SAFETY=ON (the default under
 * Clang) proves the locking discipline at compile time:
 *
 *   class TraceAgent {
 *     Mutex mu_{lockorder::LockRank::kAgentQueue, "agent.queue"};
 *     std::map<std::uint64_t, Stream> streams_ EXIST_GUARDED_BY(mu_);
 *   };
 *
 * Under GCC (or with the option off) the attributes expand to nothing
 * and Mutex is a plain std::mutex wrapper. Under
 * -DEXIST_DEBUG_LOCK_ORDER=ON every Mutex additionally registers its
 * acquisitions with the runtime lock-order validator
 * (util/lock_order.h), which catches deadlock *candidates* — opposite
 * nesting orders — that neither TSan nor the static analysis can see.
 *
 * The raw std::mutex family is banned in src/ outside this header and
 * the validator itself; tools/analyzer (rule raw-locking) enforces
 * that.
 */
#ifndef EXIST_UTIL_THREAD_ANNOTATIONS_H
#define EXIST_UTIL_THREAD_ANNOTATIONS_H

#include <condition_variable>  // lint-allow: raw-locking (wrapped here)
#include <mutex>               // lint-allow: raw-locking (wrapped here)

#include "util/lock_order.h"

// --- Attribute macros -----------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define EXIST_TS_ATTR(x) __attribute__((x))
#else
#define EXIST_TS_ATTR(x)  // no-op: the analysis is Clang-only
#endif

/** Class is a lockable capability ("mutex"). */
#define EXIST_CAPABILITY(x) EXIST_TS_ATTR(capability(x))
/** RAII class whose lifetime equals a capability hold. */
#define EXIST_SCOPED_CAPABILITY EXIST_TS_ATTR(scoped_lockable)
/** Field may only be touched while holding `x`. */
#define EXIST_GUARDED_BY(x) EXIST_TS_ATTR(guarded_by(x))
/** Pointee may only be touched while holding `x`. */
#define EXIST_PT_GUARDED_BY(x) EXIST_TS_ATTR(pt_guarded_by(x))
/** Caller must hold the listed capabilities. */
#define EXIST_REQUIRES(...) \
    EXIST_TS_ATTR(requires_capability(__VA_ARGS__))
/** Function acquires the listed capabilities (empty: `this`). */
#define EXIST_ACQUIRE(...) \
    EXIST_TS_ATTR(acquire_capability(__VA_ARGS__))
/** Function releases the listed capabilities (empty: `this`). */
#define EXIST_RELEASE(...) \
    EXIST_TS_ATTR(release_capability(__VA_ARGS__))
/** Function acquires the capability iff it returns `b`. */
#define EXIST_TRY_ACQUIRE(b, ...) \
    EXIST_TS_ATTR(try_acquire_capability(b, __VA_ARGS__))
/** Caller must NOT hold the listed capabilities (deadlock guard for
 *  blocking calls). */
#define EXIST_EXCLUDES(...) EXIST_TS_ATTR(locks_excluded(__VA_ARGS__))
/** Function returns a reference to the capability guarding its
 *  result. */
#define EXIST_RETURN_CAPABILITY(x) EXIST_TS_ATTR(lock_returned(x))
/** Escape hatch: disable the analysis for one function. */
#define EXIST_NO_THREAD_SAFETY_ANALYSIS \
    EXIST_TS_ATTR(no_thread_safety_analysis)

namespace exist {

/**
 * The project mutex: std::mutex plus a capability annotation and, in
 * EXIST_DEBUG_LOCK_ORDER builds, a (rank, name) registration with the
 * lock-order validator. In release builds the rank/name constructor
 * arguments compile away entirely — sizeof(Mutex) == sizeof(std::mutex)
 * and lock()/unlock() inline to the std calls.
 */
class EXIST_CAPABILITY("mutex") Mutex
{
  public:
#if defined(EXIST_DEBUG_LOCK_ORDER)
    explicit Mutex(lockorder::LockRank rank = lockorder::LockRank::kLeaf,
                   const char *name = "mutex")
        : rank_(static_cast<int>(rank)), name_(name)
    {
    }
#else
    explicit Mutex(lockorder::LockRank = lockorder::LockRank::kLeaf,
                   const char * = "mutex")
    {
    }
#endif

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() EXIST_ACQUIRE()
    {
#if defined(EXIST_DEBUG_LOCK_ORDER)
        // Register before blocking so an about-to-deadlock acquisition
        // is reported instead of hanging the test.
        lockorder::onAcquire(this, rank_, name_);
#endif
        mu_.lock();
    }

    void
    unlock() EXIST_RELEASE()
    {
        mu_.unlock();
#if defined(EXIST_DEBUG_LOCK_ORDER)
        lockorder::onRelease(this);
#endif
    }

  private:
    std::mutex mu_;
#if defined(EXIST_DEBUG_LOCK_ORDER)
    int rank_;
    const char *name_;
#endif
};

/** RAII lock over an exist::Mutex (annotated std::lock_guard). */
class EXIST_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) EXIST_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~MutexLock() EXIST_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/**
 * Condition variable waiting directly on an exist::Mutex (it is a
 * BasicLockable, so condition_variable_any applies). Callers hold the
 * mutex and open-code the predicate loop:
 *
 *   MutexLock lk(mu_);
 *   while (!ready_)        // ready_ is EXIST_GUARDED_BY(mu_)
 *       cv_.wait(mu_);
 *
 * keeping every guarded access inside the annotated function body
 * (predicate lambdas would escape the analysis).
 */
class CondVar
{
  public:
    /** Atomically release `mu`, sleep, reacquire. Spurious wakeups
     *  happen; always wrap in a predicate loop. */
    void
    wait(Mutex &mu) EXIST_REQUIRES(mu)
    {
        cv_.wait(mu);
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable_any cv_;
};

}  // namespace exist

#endif  // EXIST_UTIL_THREAD_ANNOTATIONS_H
