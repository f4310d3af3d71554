/**
 * @file
 * Collection-plane orchestration: runs finished sessions' results
 * over the simulated fabric (node TraceAgents -> master Ingest) and
 * re-applies the delivered payloads, so a control-plane caller gets
 * results that are byte-identical to in-process delivery whenever the
 * transfer completed within the retry budget. The ingest's advertised
 * window is the transfer's only flow control (agent/trace_agent.h).
 *
 * ShardedMaster calls collectPlan() for each request between its last
 * session and capturePublish(); `existctl trace --net` uses the
 * single-session collectSessionResult(). Both are no-ops — the
 * historical in-process hand-off — unless their NetSpec is enabled:
 * the request's TraceRequest::netSpec() (its `net=` manifest keys)
 * for collectPlan(), the caller's spec for collectSessionResult().
 *
 * Determinism: each request gets its own EventQueue + Fabric seeded
 * by splitmix64 over (cluster seed, request id), so the collection
 * fault pattern for request N is a pure function of the seed and N —
 * independent of which shard runs it, in which order, on how many
 * threads (the same argument as requestPlanSeed; DESIGN.md §10).
 */
#ifndef EXIST_CLUSTER_COLLECTION_H
#define EXIST_CLUSTER_COLLECTION_H

#include <cstdint>
#include <string>

#include "agent/trace_agent.h"
#include "cluster/ingest.h"
#include "cluster/metrics.h"
#include "cluster/shard/plan.h"
#include "net/fabric.h"

namespace exist {

/** Node id of the master's ingest endpoint on the fabric (worker
 *  node ids are small and non-negative). */
inline constexpr NodeId kCollectorNode = 1'000'000;

/** Virtual-time budget for one request's collection run: past this,
 *  incomplete streams fall back to whatever summary arrived. */
inline constexpr double kCollectDeadlineSeconds = 120.0;

/** Seed of request `request_id`'s private collection fabric. */
std::uint64_t collectSeed(std::uint64_t cluster_seed,
                          std::uint64_t request_id);

/** What one collection run did (telemetry; the data lands back in
 *  the session results / ExperimentResult). */
struct CollectionOutcome {
    std::size_t complete = 0;  ///< payload fully reassembled
    std::size_t degraded = 0;  ///< summary-only (spill or deadline)
    agent::AgentStats agents;  ///< summed over the request's agents
    IngestStats ingest;
    net::FabricStats fabric;
    std::string wire_log;  ///< when NetSpec::record_wire_log
};

/**
 * Run the collection plane over one planned request's finished
 * sessions: move each session result's collection-borne fields out,
 * ship them through agents over the fabric, reassemble at the
 * ingest, move them back. Publishes net.* / agent.* metrics into
 * `registry` (nullptr = skip). Nothing of the run is journaled: a
 * request that crashed mid-collection is re-planned and collected
 * again over the same collectSeed() fabric, which repeats the
 * transfer exactly.
 */
CollectionOutcome collectPlan(RequestPlan &plan,
                              std::uint64_t cluster_seed,
                              metrics::Registry *registry);

/** Single-session variant (existctl trace --net): node 0 -> master
 *  over a private fabric seeded with `seed`. */
CollectionOutcome collectSessionResult(ExperimentResult &result,
                                       const net::NetSpec &spec,
                                       std::uint64_t seed,
                                       const std::string &app,
                                       metrics::Registry *registry);

}  // namespace exist

#endif  // EXIST_CLUSTER_COLLECTION_H
