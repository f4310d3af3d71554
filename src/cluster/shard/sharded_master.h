/**
 * @file
 * The control plane — the Kubernetes-master-side integration (paper
 * §4 + §3.4): an API server holding TraceRequest CRDs and a
 * reconciling controller that (1) asks RCO for the tracing period and
 * the set of repetitions, (2) runs an EXIST session on each selected
 * worker node, (3) uploads raw trace objects to the object store,
 * (4) decodes them against the binary repository and writes
 * structured rows to the table store, and (5) merges per-worker
 * traces into one augmented report.
 *
 * The API-server state — TraceRequests, reports, per-request planning
 * RNG streams — is partitioned across N shards by request id. A
 * reconcile plans every pending request on the calling thread in
 * global id order, then drains all of their worker-node sessions
 * through one queue in commit order on the runtime work-stealing
 * pool: earlier ids get the cores first, which is the order the
 * sequenced CommitLog publishes in. The worker that finishes a
 * request's last session collects it, builds its publish effects and
 * commits them; the commit action is the only writer of the stores,
 * the RCO coverage ledger and the report map, with or without a
 * journal attached. One thread is the serial reference every
 * determinism check compares against.
 *
 * Determinism: reports are bit-identical at any shard count, thread
 * count and scheduling, because
 *   - planning uses the per-request RNG stream
 *     splitmix64(cluster seed, request id) (shared planRequest),
 *   - sessions are deterministic simulations keyed by (seed, node,
 *     request id),
 *   - publishing iterates sessions in plan order (shared
 *     capturePublish), and
 *   - the sequenced commit applies every publish in global
 *     request-id order.
 * Journal order is fixed too: every plan of an epoch, in id order,
 * then every publish, in id order. Only wall-clock time changes with
 * the shard and thread counts.
 */
#ifndef EXIST_CLUSTER_SHARD_SHARDED_MASTER_H
#define EXIST_CLUSTER_SHARD_SHARDED_MASTER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/crd.h"
#include "cluster/metrics.h"
#include "cluster/shard/commit_log.h"
#include "cluster/shard/plan.h"
#include "cluster/storage.h"
#include "core/rco.h"
#include "util/thread_annotations.h"

namespace exist {

class ControlJournal;
struct ControlStateDump;
class ThreadPool;

class ShardedMaster
{
  public:
    /**
     * shards: number of API-server shards (partitions of the request
     * and report maps). 0 picks min(hardware threads, 8). threads:
     * width of the pool that drains each reconcile's session queue:
     * 1 = everything inline on the calling thread, 0 = the
     * process-wide shared pool. metrics: registry to record into
     * (nullptr = the process-global registry).
     */
    explicit ShardedMaster(Cluster *cluster, RcoConfig rco_cfg = {},
                           int shards = 0, int threads = 0,
                           metrics::Registry *metrics = nullptr);

    /** Create a TraceRequest (API server write; thread-safe). */
    std::uint64_t submit(TraceRequest req);
    /** Convenience: submit from a trusted manifest string; fatal on
     *  one TraceRequest::parse rejects. Untrusted text is parsed by
     *  the caller and submitted. */
    std::uint64_t apply(const std::string &manifest);

    /** Plan, run and publish every pending request (one epoch). */
    void reconcile();

    /**
     * Pointer into the shard's node-stable map. All fields except
     * `phase` are immutable after submit; read a possibly-in-flight
     * request's phase through phaseOf(), which takes the shard lock
     * (the raw pointer would race the reconcile-time transitions).
     */
    const TraceRequest *request(std::uint64_t id) const;
    const TraceReport *report(std::uint64_t id) const;
    /** Lock-synchronized phase read; safe while reconcile runs. */
    RequestPhase phaseOf(std::uint64_t id) const;

    /** Read-only: only sequenced commits (and restoreForRecovery)
     *  write the stores. Safe to read while reconcile runs. */
    const ObjectStore &oss() const { return oss_; }
    const OdpsTable &odps() const { return odps_; }
    const RepetitionAwareCoverageOptimizer &rco() const { return rco_; }
    /** Coverage accounting, committed in request-id order. */
    const CoverageLedger &coverage() const { return ledger_; }
    metrics::Registry &metrics() { return *metrics_; }

    int shardCount() const { return static_cast<int>(shards_.size()); }
    std::uint64_t sessionsRun() const
    {
        return sessions_run_.load(std::memory_order_relaxed);
    }

    /** Management-plane resource footprint (paper Fig. 17). */
    struct Footprint {
        double cores;
        double memory_mb;
    };
    /** Per-shard footprints summed + pool-thread memory. */
    Footprint managementFootprint() const;

    /**
     * Attach the durability journal (cluster/control_journal.h).
     * Admission and plan hooks run WAL-before-state on the calling
     * thread; the sequenced commit action journals each publish
     * before it applies it, so WAL publish order equals global id
     * order.
     * nullptr detaches.
     */
    void attachJournal(ControlJournal *journal) { journal_ = journal; }

    /** Full state image at a quiesced boundary (snapshot barrier):
     *  shard maps merged, stores in their sorted views. */
    ControlStateDump dumpState() const;
    /** Recovery-only: install a recovered image wholesale (requests
     *  and reports re-partitioned onto this instance's shards). */
    void restoreForRecovery(const ControlStateDump &dump);

  private:
    /** One API-server shard: owns the requests/reports with
     *  id % shardCount() == its index. The lock guards the maps'
     *  structure and every request's phase transition; the other
     *  TraceRequest fields are immutable once submitted. */
    struct Shard {
        mutable Mutex mu{lockorder::LockRank::kShard, "shard.state"};
        std::map<std::uint64_t, TraceRequest> requests
            EXIST_GUARDED_BY(mu);
        std::map<std::uint64_t, TraceReport> reports
            EXIST_GUARDED_BY(mu);
        metrics::Counter *reconciles = nullptr;
        metrics::Counter *sessions = nullptr;
    };
    /** One planned request of a reconcile epoch (sharded_master.cc). */
    struct Pending;

    Shard &shardFor(std::uint64_t id) const
    {
        return *shards_[id % shards_.size()];
    }

    /** Collect and publish a request whose sessions all finished, and
     *  hand its effects to the commit log (`start`: when its
     *  reconcile() began, for reconcile.latency_us). */
    void commitRequest(Pending &p,
                       std::chrono::steady_clock::time_point start);
    void recordSessionMetrics(const ExperimentResult &result);

    Cluster *cluster_;
    RepetitionAwareCoverageOptimizer rco_;
    int threads_;
    metrics::Registry *metrics_;
    ControlJournal *journal_ = nullptr;
    std::vector<std::unique_ptr<Shard>> shards_;
    CommitLog log_;
    // Written only inside sequenced commits and restoreForRecovery.
    CoverageLedger ledger_;
    ObjectStore oss_;
    OdpsTable odps_;
    std::atomic<std::uint64_t> sessions_run_{0};
};

}  // namespace exist

#endif  // EXIST_CLUSTER_SHARD_SHARDED_MASTER_H
