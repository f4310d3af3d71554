/**
 * @file
 * Sequenced commit log for cross-shard control-plane invariants. Two
 * jobs:
 *
 *  1. Global id allocation: TraceRequest ids come from one atomic
 *     stream regardless of which shard the request lands on, so the
 *     API-server id order *is* the submit order — the property every
 *     determinism argument downstream leans on.
 *
 *  2. Ordered commits: per-epoch, each reconciled request is assigned
 *     a commit sequence number (its rank in id order) and its
 *     *commit action* — the sequenced tail of publishing: the journal
 *     record, the moves into the object and table stores, RCO
 *     coverage accounting, report registration, the phase flip — is
 *     applied strictly in sequence order. The log is a reorder
 *     buffer, not a barrier: a worker that finishes a request out of
 *     order stages its action and moves on; whoever completes the
 *     missing sequence applies the whole ready run. Workers therefore
 *     never *block* on the log, so no pool width can deadlock it.
 *
 * The action is the only writer of a request's published results.
 * They were built beforehand by the worker that finished the
 * request's sessions (capturePublish), so the action only journals
 * them and moves them into place.
 */
#ifndef EXIST_CLUSTER_SHARD_COMMIT_LOG_H
#define EXIST_CLUSTER_SHARD_COMMIT_LOG_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>

#include "util/thread_annotations.h"

namespace exist {

class CommitLog
{
  public:
    /** Next global request id (starts at 1). */
    std::uint64_t allocateId()
    {
        return next_id_.fetch_add(1, std::memory_order_relaxed);
    }
    std::uint64_t lastAllocatedId() const
    {
        return next_id_.load(std::memory_order_relaxed) - 1;
    }

    /** Recovery-only: resume the id stream where the crashed control
     *  plane left it, so re-submitted and new requests get the same
     *  ids a crash-free run would have assigned. */
    void restoreNextId(std::uint64_t next_id)
    {
        next_id_.store(next_id, std::memory_order_relaxed);
    }

    /** Start an epoch expecting commits with sequences [0, entries). */
    void beginEpoch(std::uint64_t entries);

    /**
     * Commit sequence `seq` with action `fn`. Applies fn immediately
     * when seq is next in order (then drains any staged successors),
     * otherwise stages it. Actions run under the log mutex: keep them
     * small (a WAL append, moves into the stores, map inserts, ledger
     * update, phase flip). Returns the number of actions applied by
     * this call (0 = staged).
     */
    std::size_t commit(std::uint64_t seq, std::function<void()> fn);

    /** Commits applied in the current epoch. */
    std::uint64_t committed() const;
    /** True when every commit of the current epoch has been applied. */
    bool epochComplete() const;

  private:
    std::atomic<std::uint64_t> next_id_{1};

    // Rank kCommitLog sits BELOW kShard, kWal, kStore and kMetrics in
    // the lock hierarchy: commit actions legitimately acquire each of
    // those while the log mutex is held (drain of staged successors).
    mutable Mutex mu_{lockorder::LockRank::kCommitLog, "commitlog"};
    std::uint64_t next_seq_ EXIST_GUARDED_BY(mu_) = 0;
    std::uint64_t epoch_entries_ EXIST_GUARDED_BY(mu_) = 0;
    std::map<std::uint64_t, std::function<void()>> staged_
        EXIST_GUARDED_BY(mu_);
};

}  // namespace exist

#endif  // EXIST_CLUSTER_SHARD_COMMIT_LOG_H
