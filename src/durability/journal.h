/**
 * @file
 * WAL-backed ControlJournal (DESIGN.md §12): the durability plane's
 * live half. Each master hook appends its record (flushed before the
 * call returns), crosses the matching crash point, and only then does
 * the caller mutate in-memory state — the WAL-before-state discipline
 * that makes recovery exact.
 *
 * Hook -> record -> crash point:
 *   onAdmit       kAdmit        "admit"
 *   onPlanned     kPlan         "post-plan"   (logs the plan seed)
 *   onPublish     kPublish      "pre-store"
 *
 * Collection is not journaled: a request that dies before its publish
 * is re-planned and collected again after recovery.
 *
 * Snapshots: maybeSnapshot() runs at quiesced reconcile boundaries
 * (callers pass a dump closure, evaluated only when due); it writes
 * the image (crossing "mid-snapshot" before the rename and
 * "post-snapshot" before truncation), keeps the two newest images,
 * and truncates WAL segments wholly below the older kept barrier.
 *
 * Thread-safety: admits may come from concurrent submitters, plans
 * from the reconcile caller and publishes from whichever worker
 * drains the commit log; the Wal's kWal mutex orders appends (publish
 * appends happen inside CommitLog actions, so their LSN order is the
 * global id order), and the snapshot counter is atomic.
 */
#ifndef EXIST_DURABILITY_JOURNAL_H
#define EXIST_DURABILITY_JOURNAL_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "cluster/control_journal.h"
#include "cluster/metrics.h"
#include "durability/snapshot.h"
#include "durability/spec.h"
#include "durability/wal.h"

namespace exist::durability {

class Journal : public ControlJournal
{
  public:
    /**
     * Opens (or reopens after recovery) the WAL under spec.wal_dir.
     * On a fresh log the meta record is appended immediately, so even
     * a crash before the first admit leaves a recoverable (empty)
     * control plane.
     */
    Journal(const DurabilitySpec &spec, const ClusterMeta &meta,
            metrics::Registry *registry = nullptr);

    void onAdmit(const TraceRequest &req) override;
    void onPlanned(std::uint64_t id, RequestPhase outcome) override;
    void onPublish(std::uint64_t id, const PublishEffects &fx) override;

    /**
     * Snapshot when >= snapshot_interval publishes accumulated since
     * the last barrier (force = unconditionally). Call only at
     * quiesced boundaries — `dump` must see no in-flight mutation.
     * Returns true when an image was written.
     */
    bool maybeSnapshot(const std::function<ControlStateDump()> &dump,
                       bool force = false);

    std::uint64_t nextLsn() const { return wal_.nextLsn(); }
    const ClusterMeta &meta() const { return meta_; }

  private:
    const DurabilitySpec spec_;
    const ClusterMeta meta_;
    metrics::Registry *registry_;
    Wal wal_;
    std::atomic<std::uint64_t> publishes_since_snapshot_{0};
};

}  // namespace exist::durability

#endif  // EXIST_DURABILITY_JOURNAL_H
