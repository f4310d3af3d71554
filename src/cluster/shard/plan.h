/**
 * @file
 * Reconcile phases of the control plane: planning one TraceRequest
 * into worker-node sessions, and capturing what the completed
 * sessions publish (trace objects, decoded rows, a merged report and
 * a coverage-ledger delta). ShardedMaster runs these same pure
 * functions for every request, and only its sequenced commit action
 * applies what capturePublish returns, so a report does not depend on
 * which thread produced it, or on whether a journal is attached.
 *
 * Determinism contract: planning draws randomness from a *per-request*
 * RNG stream derived by splitmix64 over (cluster seed, request id), so
 * the plan for request N is a pure function of the cluster state and N
 * — independent of which shard plans it, in which order, on which
 * thread.
 */
#ifndef EXIST_CLUSTER_SHARD_PLAN_H
#define EXIST_CLUSTER_SHARD_PLAN_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/testbed.h"
#include "cluster/cluster.h"
#include "cluster/crd.h"
#include "cluster/storage.h"
#include "core/rco.h"

namespace exist {

/** The merged outcome of one reconciled trace request. */
struct TraceReport {
    std::uint64_t request_id = 0;
    std::string app;
    Cycles period = 0;
    std::vector<NodeId> traced_nodes;
    std::vector<double> per_worker_accuracy;
    /** Wall accuracy of the merged profile vs the merged reference. */
    double merged_accuracy = 0.0;
    std::vector<std::uint64_t> merged_function_insns;
    /** Merged exhaustive reference across workers (for re-scoring
     *  subsets, e.g. the Fig. 20 sweep). */
    std::vector<std::uint64_t> merged_truth_function_insns;
    std::uint64_t total_trace_bytes = 0;
    /** Mean slowdown observed on the traced pods (sanity telemetry). */
    double mean_target_cpi = 0.0;

    bool operator==(const TraceReport &) const = default;
};

/** One worker-node tracing session to run (independent of all others
 *  once planned). */
struct SessionPlan {
    NodeId node = kInvalidId;
    ExperimentSpec spec;
    ExperimentResult result;
};

/** Everything planning decided for one request, plus the per-worker
 *  session slots filled in by the run phase. */
struct RequestPlan {
    TraceRequest *req = nullptr;
    /** Phase the request should transition to (kRunning, or kFailed
     *  when planning rejected it). planRequest never writes
     *  req->phase itself: the caller owns the transition so it can
     *  apply it under the lock that guards the request (the
     *  ShardedMaster's shard lock). */
    RequestPhase outcome = RequestPhase::kFailed;
    Cycles period = 0;
    std::vector<int> workers;
    std::vector<SessionPlan> sessions;
};

/** Seed of request `request_id`'s private planning RNG stream. */
std::uint64_t requestPlanSeed(std::uint64_t cluster_seed,
                              std::uint64_t request_id);

/**
 * Phase 1 — plan: consume cluster metadata and the request's private
 * RNG stream, emit the session specs. Reports kRunning via
 * plan.outcome, or kFailed when the app is not deployed (the plan
 * then has no sessions) — the caller applies the transition under its
 * request lock. `threads` only selects each session's decode pool
 * policy (1 = decode on the thread that runs the session; anything
 * else fans the per-core decode out onto the shared pool) — it never
 * changes the plan itself. ShardedMaster passes 1: its sessions
 * already run side by side on its own pool.
 */
RequestPlan planRequest(Cluster *cluster,
                        const RepetitionAwareCoverageOptimizer &rco,
                        TraceRequest &req, int threads);

/** The coverage-ledger update one publish performs, logged so replay
 *  applies accounting without re-running the request. */
struct LedgerDelta {
    std::string app;
    std::uint64_t sessions = 0;
    Cycles period = 0;
    std::uint64_t trace_bytes = 0;
};

/** Everything one completed request publishes. */
struct PublishEffects {
    TraceReport report;
    /** OSS (key, bytes) and ODPS rows, in plan order. */
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        objects;
    std::vector<TraceRow> rows;
    LedgerDelta ledger;
};

/**
 * Phase 3 — publish: build what a completed plan publishes: the raw
 * trace objects, the decoded rows, the merged report and the ledger
 * delta. Pure function of the plan contents and the request fields;
 * iterates sessions in plan order, so the effects do not depend on
 * who calls it. Consumes the sessions' raw traces: each one's bytes
 * move into its OSS object. Touches no live state: the caller's
 * sequenced commit journals the effects, moves them into the stores,
 * records the ledger delta and registers the report.
 */
PublishEffects capturePublish(RequestPlan &plan);

}  // namespace exist

#endif  // EXIST_CLUSTER_SHARD_PLAN_H
