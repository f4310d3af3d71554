/**
 * @file
 * The control plane's durability seam. The cluster library cannot
 * depend on src/durability/ (durability links against cluster), so
 * the control plane journals through this abstract interface: the
 * durability plane implements it with a WAL-backed Journal, tests
 * with fakes, and a null journal (the default) restores the
 * historical in-memory-only behaviour.
 *
 * The WAL-before-state discipline lives in the *callers*: every hook
 * is invoked after the decision is final but BEFORE the corresponding
 * in-memory mutation, so a crash between append and apply loses no
 * acknowledged state — recovery treats the log as truth and replays
 * the mutation. Publishes are physical redo records: capturePublish()
 * runs the pure publishRequest() into a capture sink, the journal
 * logs the full effects (report, OSS objects, ODPS rows, ledger
 * delta), and only then does applyPublish() touch the real stores,
 * so a completed request is never re-run after recovery.
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

/** The coverage-ledger update one publish performs, logged so replay
 *  applies accounting without re-running the request. */
struct LedgerDelta {
    std::string app;
    std::uint64_t sessions = 0;
    Cycles period = 0;
    std::uint64_t trace_bytes = 0;
};

/** Everything one publishRequest() produced, captured before any of
 *  it is applied to live state. */
struct PublishEffects {
    TraceReport report;
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        objects;
    std::vector<TraceRow> rows;
    LedgerDelta ledger;
};

/** Ingest reassembly cursor of one agent stream, persisted per
 *  in-order-consumed batch and used to resume the stream after
 *  recovery instead of re-shipping delivered bytes. */
struct StreamResume {
    std::uint64_t total_batches = 0;  ///< the stream's full extent
    std::uint64_t cumulative = 0;  ///< batches [0, cumulative) consumed
    std::vector<std::uint8_t> prefix;  ///< their reassembled payload
};

/**
 * Collection-plane durability hooks for one request, passed into
 * collectPlan(): on_consume fires on every in-order batch consume
 * (the ingest watermark append), `resume` pre-seeds the ingest and
 * agents with the recovered cursors.
 */
struct CollectHooks {
    std::function<void(NodeId node, std::uint64_t stream,
                       std::uint64_t seq, std::uint64_t total_batches,
                       const std::vector<std::uint8_t> &chunk)>
        on_consume;
    std::map<std::pair<NodeId, std::uint64_t>, StreamResume> resume;
};

/**
 * Full control-plane state image, produced by
 * ShardedMaster::dumpState() at a quiesced reconcile boundary (the
 * snapshot barrier) and installed by restoreForRecovery(). Maps keep
 * it deterministically ordered; objects/rows are sorted by the
 * dumper.
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
 *  Implementations must be safe to call from concurrent shard lanes. */
class ControlJournal
{
  public:
    virtual ~ControlJournal() = default;

    /** A request was assigned its id; the map insert follows. */
    virtual void onAdmit(const TraceRequest &req) = 0;
    /** Planning finished (outcome = kRunning/kFailed); the phase flip
     *  follows. Implementations log the plan seed for replay checks. */
    virtual void onPlanned(std::uint64_t id, RequestPhase outcome) = 0;
    /** Hooks for this request's collection run (ingest watermarks +
     *  recovered resume cursors). */
    virtual CollectHooks collectHooks(std::uint64_t id) = 0;
    /** Publish effects are final; applying them to stores/ledger/
     *  report map follows. */
    virtual void onPublish(std::uint64_t id,
                           const PublishEffects &fx) = 0;
};

/** Run the pure publish into a capture sink; no live state touched. */
PublishEffects capturePublish(RequestPlan &plan);

/** Apply captured effects to the real data-path sink (consumes the
 *  object/row payloads; the report/ledger delta stay readable). */
void applyPublish(PublishEffects &fx, StoreSink &sink);

}  // namespace exist

#endif  // EXIST_CLUSTER_CONTROL_JOURNAL_H
