/**
 * @file
 * The control plane's durability seam. The cluster library cannot
 * depend on src/durability/ (durability links against cluster), so
 * the control plane journals through this abstract interface: the
 * durability plane implements it with a WAL-backed Journal and tests
 * with fakes. With no journal attached (ShardedMaster's default) the
 * control plane skips every hook and keeps its state in memory only.
 *
 * The WAL-before-state discipline lives in the *callers*: every hook
 * is invoked after the decision is final but BEFORE the corresponding
 * in-memory mutation, so a crash between append and apply loses no
 * acknowledged state — recovery treats the log as truth and replays
 * the mutation. Publishes are physical redo records: the worker that
 * finishes a request's sessions builds the full PublishEffects
 * (report, OSS objects, ODPS rows, ledger delta; cluster/shard/plan.h),
 * and the sequenced commit action logs them before it moves them into
 * the stores, so a completed request is never re-run after recovery.
 */
#ifndef EXIST_CLUSTER_CONTROL_JOURNAL_H
#define EXIST_CLUSTER_CONTROL_JOURNAL_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/shard/plan.h"
#include "cluster/storage.h"
#include "util/types.h"

namespace exist {

/**
 * Retired: the collection plane journals nothing, so nothing calls
 * ControlJournal::collectHooks() or reads this struct. Both stay only
 * because the benchmark's TimingJournal (perfbench/common.h) still
 * overrides the hook and wraps on_consume; the next benchmark change
 * drops that override, and then both go.
 */
struct CollectHooks {
    std::function<void(NodeId node, std::uint64_t stream,
                       std::uint64_t seq, std::uint64_t total_batches,
                       const std::vector<std::uint8_t> &chunk)>
        on_consume;
};

/**
 * Full control-plane state image, produced by
 * ShardedMaster::dumpState() at a quiesced reconcile boundary (the
 * snapshot barrier) and installed by restoreForRecovery(). Maps keep
 * it deterministically ordered; objects/rows are the stores' sorted
 * views (cluster/storage.h).
 */
struct ControlStateDump {
    std::uint64_t next_id = 1;
    std::map<std::uint64_t, TraceRequest> requests;
    std::map<std::uint64_t, TraceReport> reports;
    CoverageLedger ledger;
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        objects;
    std::vector<TraceRow> rows;
};

/** The journal interface the control plane mutates through.
 *  Implementations must be safe to call from concurrent threads. */
class ControlJournal
{
  public:
    virtual ~ControlJournal() = default;

    /** A request was assigned its id; the map insert follows. */
    virtual void onAdmit(const TraceRequest &req) = 0;
    /** Planning finished (outcome = kRunning/kFailed); the phase flip
     *  follows. Implementations log the plan seed for replay checks. */
    virtual void onPlanned(std::uint64_t id, RequestPhase outcome) = 0;
    /** Retired (see CollectHooks): nothing calls it. */
    virtual CollectHooks collectHooks(std::uint64_t /*id*/) { return {}; }
    /** Publish effects are final; called from the sequenced commit
     *  action (so in global id order), before it applies them to the
     *  stores, the ledger and the report map. */
    virtual void onPublish(std::uint64_t id,
                           const PublishEffects &fx) = 0;
};

}  // namespace exist

#endif  // EXIST_CLUSTER_CONTROL_JOURNAL_H
