/**
 * @file
 * Debug lock-order validation: deadlock detection that TSan cannot
 * provide. Every annotated `exist::Mutex` (util/thread_annotations.h)
 * carries a rank in the repo-wide lock hierarchy; at acquire time a
 * thread-local held-lock stack checks that ranks only ever ascend.
 * Two lock acquisitions that different threads perform in opposite
 * orders deadlock only under the losing interleaving — the validator
 * flags the *ordering rule* violation on whichever interleaving the
 * test happens to run, so one single-threaded pass through the code
 * path is enough to catch it.
 *
 * Checks performed on each acquire:
 *  - recursive acquisition of the same (non-recursive) mutex;
 *  - rank inversion: acquiring a mutex ranked below one already held;
 *  - same-rank cycles: equal-rank nesting is tolerated (e.g. two leaf
 *    caches), but the (A, B) acquisition order is recorded in a global
 *    edge table and the reverse order (B, A) — a deadlock candidate —
 *    is reported.
 *
 * The validator itself is always compiled (so its unit tests run in
 * every build); the *hooks* in exist::Mutex are compiled in only under
 * EXIST_DEBUG_LOCK_ORDER, keeping release mutexes byte-identical to
 * std::mutex.
 *
 * The lock hierarchy (acquire downward only — see DESIGN.md §8):
 *   pool < agent queue < commit log < ingest < shard < wal < store
 *        < metrics < obs < leaf
 */
#ifndef EXIST_UTIL_LOCK_ORDER_H
#define EXIST_UTIL_LOCK_ORDER_H

#include <cstddef>
#include <functional>
#include <string>

namespace exist::lockorder {

/**
 * Ranks of the repo's lock sites. Gaps leave room for new subsystems;
 * what matters is the relative order, which mirrors the nesting the
 * code actually performs (a CommitLog commit action acquires the WAL,
 * store, metrics and owning shard's state locks, one at a time;
 * everything else nests forward into stores/metrics or not at all).
 */
enum class LockRank : int {
    kPool = 0,         ///< runtime/thread_pool deque + idle locks
    kAgentQueue = 25,  ///< agent/trace_agent bounded send queue
    kCommitLog = 30,   ///< cluster/shard sequenced commit log
    kIngest = 35,      ///< cluster/ingest reassembly + dedup state
    kShard = 40,       ///< ShardedMaster per-shard API-server state
    kWal = 45,         ///< durability WAL appender (taken inside
                       ///< commit actions and the admit and plan
                       ///< hooks, before any store/metrics acquire)
    kStore = 50,       ///< the OSS and ODPS store locks (written in
                       ///< commit actions, read from any thread)
    kMetrics = 60,     ///< metrics registry stripe locks
    kObs = 70,         ///< obs collector dump lock (trace snapshot /
                       ///< flight dump serialization; the span *emit*
                       ///< path is lock-free and never takes it)
    kLeaf = 100,       ///< caches etc. held across no other acquire
};

/** One detected ordering violation. */
struct Violation {
    enum class Kind {
        kRecursive,     ///< same mutex acquired twice by one thread
        kRankInversion, ///< rank below an already-held rank
        kSameRankCycle, ///< equal ranks nested in both orders
    };
    Kind kind;
    std::string message;
};

/**
 * Install a violation handler (tests install a recorder); returns the
 * previous handler. With no handler installed a violation is a panic —
 * the build is a debug build, loudness is the point.
 */
using Handler = std::function<void(const Violation &)>;
Handler setViolationHandler(Handler handler);

/** Record an acquire of `mu` (called BEFORE blocking on it, so an
 *  about-to-deadlock acquire is reported, not deadlocked on). */
void onAcquire(const void *mu, int rank, const char *name);

/** Record a release. Out-of-order release (hand-over-hand) is legal. */
void onRelease(const void *mu);

/** Locks the calling thread currently holds (test introspection). */
std::size_t heldCount();

/** Drop this thread's held stack (test isolation helper). */
void resetThread();

/** Forget all recorded same-rank edges (test isolation helper). */
void forgetEdges();

}  // namespace exist::lockorder

#endif  // EXIST_UTIL_LOCK_ORDER_H
