/**
 * @file
 * Reconcile phases of the control plane: planning one TraceRequest
 * into worker-node sessions and publishing the completed sessions into
 * storage + a merged report. Every ShardedMaster lane runs these same
 * functions, and journaled publishes go through them too
 * (capturePublish), so a report does not depend on which lane or
 * thread produced it.
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
 * request lock. `threads` is the controller's parallelism knob and only
 * selects the per-session decode pool policy (1 = fully serial
 * sessions; anything else shares the process pool, streaming sessions
 * get small dedicated pools) — it never changes the plan itself.
 */
RequestPlan planRequest(Cluster *cluster,
                        const RepetitionAwareCoverageOptimizer &rco,
                        TraceRequest &req, int threads);

/**
 * Data-path sink for phase 3: raw trace objects and decoded rows. The
 * ShardedMaster backs it with the striped stores (+ metrics); the
 * durability plane's capture sink records the effects instead.
 */
class StoreSink
{
  public:
    virtual ~StoreSink() = default;
    virtual void putObject(const std::string &key,
                           std::vector<std::uint8_t> bytes) = 0;
    virtual void insertRow(TraceRow row) = 0;
};

/**
 * Phase 3 — publish: upload traces, write rows, assemble the merged
 * report from completed session results. Pure function of the plan
 * contents and the request fields; iterates sessions in plan order, so
 * the report bytes do not depend on who calls it. Does NOT flip the
 * request phase or register the report — the caller sequences those
 * (the sharded path through its commit log).
 */
TraceReport publishRequest(RequestPlan &plan, StoreSink &sink);

}  // namespace exist

#endif  // EXIST_CLUSTER_SHARD_PLAN_H
