#include "durability/journal.h"

#include <utility>

#include "cluster/shard/plan.h"
#include "durability/crash_point.h"
#include "obs/trace_plane.h"
#include "util/logging.h"

namespace exist::durability {

Journal::Journal(const DurabilitySpec &spec, const ClusterMeta &meta,
                 metrics::Registry *registry)
    : spec_(spec),
      meta_(meta),
      registry_(registry),
      wal_(Wal::Config{spec.wal_dir}, registry)
{
    EXIST_ASSERT(spec_.enabled(), "Journal requires a wal_dir");
    if (wal_.nextLsn() == 1) {
        WalRecord rec;
        rec.type = RecordType::kMeta;
        rec.meta = meta_;
        wal_.append(std::move(rec));
    }
}

void
Journal::onAdmit(const TraceRequest &req)
{
    WalRecord rec;
    rec.type = RecordType::kAdmit;
    rec.request_id = req.id;
    rec.manifest = req.toManifest();
    wal_.append(std::move(rec));
    crashpoint::hit("admit");
}

void
Journal::onPlanned(std::uint64_t id, RequestPhase outcome)
{
    WalRecord rec;
    rec.type = RecordType::kPlan;
    rec.request_id = id;
    rec.plan_seed = requestPlanSeed(meta_.cluster_seed, id);
    rec.outcome = static_cast<std::uint8_t>(outcome);
    wal_.append(std::move(rec));
    crashpoint::hit("post-plan");
}

void
Journal::onPublish(std::uint64_t id, const PublishEffects &fx)
{
    WalRecord rec;
    rec.type = RecordType::kPublish;
    rec.request_id = id;
    rec.effects = fx;
    wal_.append(std::move(rec));
    publishes_since_snapshot_.fetch_add(1, std::memory_order_relaxed);
    crashpoint::hit("pre-store");
}

bool
Journal::maybeSnapshot(const std::function<ControlStateDump()> &dump,
                       bool force)
{
    std::uint64_t pending =
        publishes_since_snapshot_.load(std::memory_order_relaxed);
    bool due = spec_.snapshot_interval > 0 &&
               pending >= spec_.snapshot_interval;
    if (!force && !due)
        return false;

    SnapshotState state;
    state.meta = meta_;
    state.barrier_lsn = wal_.nextLsn();
    EXIST_SPAN("wal.snapshot", state.barrier_lsn);
    state.dump = dump();
    std::string error;
    if (!writeSnapshot(spec_.wal_dir, state, &error))
        EXIST_FATAL("snapshot at barrier %llu failed: %s",
                    (unsigned long long)state.barrier_lsn,
                    error.c_str());
    crashpoint::hit("post-snapshot");

    // Keep the two newest images and truncate only below the OLDER
    // kept barrier: if the newest image is later found corrupt,
    // recovery still has the previous one plus an intact WAL tail.
    pruneSnapshots(spec_.wal_dir, 2);
    auto snaps = listSnapshots(spec_.wal_dir);
    if (snaps.size() >= 2)
        wal_.truncateBefore(snaps[snaps.size() - 2].first);

    publishes_since_snapshot_.store(0, std::memory_order_relaxed);
    if (registry_ != nullptr) {
        registry_->counter("wal.snapshots").add(1);
        registry_->gauge("wal.snapshot_barrier")
            .set(static_cast<std::int64_t>(state.barrier_lsn));
    }
    return true;
}

}  // namespace exist::durability
