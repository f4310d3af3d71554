#include "cluster/shard/plan.h"

#include <algorithm>
#include <utility>

#include "analysis/accuracy.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/app_profile.h"

namespace exist {

std::uint64_t
requestPlanSeed(std::uint64_t cluster_seed, std::uint64_t request_id)
{
    // splitmix64 over (seed, id): two dependent steps so adjacent ids
    // land in statistically independent streams.
    std::uint64_t sm = cluster_seed ^ 0x6d617374ULL;  // "mast"
    std::uint64_t base = splitmix64(sm);
    sm = base ^ (request_id * 0xd1342543de82ef95ULL);
    return splitmix64(sm);
}

RequestPlan
planRequest(Cluster *cluster,
            const RepetitionAwareCoverageOptimizer &rco,
            TraceRequest &req, int threads)
{
    RequestPlan plan;
    plan.req = &req;
    plan.outcome = RequestPhase::kRunning;

    if (cluster->replicasOf(req.app) == 0) {
        warn("trace request %llu: app %s not deployed",
             (unsigned long long)req.id, req.app.c_str());
        plan.outcome = RequestPhase::kFailed;
        return plan;
    }

    // Temporal decider + spatial sampler (§3.4) on the request's
    // private RNG stream.
    Rng rng(requestPlanSeed(cluster->config().seed, req.id));
    AppDeployment meta = cluster->metadataFor(req.app, req.anomaly);
    plan.period = req.period_override ? req.period_override
                                      : rco.decidePeriod(meta);
    plan.workers = rco.selectWorkers(meta, rng);
    auto pods = cluster->podsOf(req.app);

    for (int widx : plan.workers) {
        const PodInstance *pod = pods[static_cast<std::size_t>(widx)];

        // Node-level session: simulate this worker node with every pod
        // placed on it, tracing the requested app with EXIST.
        SessionPlan session;
        session.node = pod->node;
        ExperimentSpec &spec = session.spec;
        spec.node.num_cores = cluster->config().cores_per_node;
        spec.backend = "EXIST";
        spec.session.period = plan.period;
        spec.session.budget_mb = req.budget_mb;
        spec.session.ring_buffers = req.ring_buffers;
        spec.session.core_sample_ratio = req.core_sample_ratio;
        spec.decode = true;
        spec.ground_truth = true;
        spec.keep_traces = true;
        spec.warmup = secondsToCycles(0.05);
        spec.seed = cluster->config().seed * 1000003ULL +
                    static_cast<std::uint64_t>(pod->node) * 131ULL +
                    req.id;
        spec.decode_threads = threads == 1 ? 1 : 0;

        std::vector<std::string> seen;
        for (const PodInstance *other : cluster->podsOn(pod->node)) {
            if (std::find(seen.begin(), seen.end(), other->app) !=
                seen.end())
                continue;
            seen.push_back(other->app);
            WorkloadSpec w;
            w.app = other->app;
            w.target = other->app == req.app;
            if (AppCatalog::find(other->app).is_service)
                w.closed_clients = 4;
            spec.workloads.push_back(std::move(w));
        }
        plan.sessions.push_back(std::move(session));
    }
    return plan;
}

PublishEffects
capturePublish(RequestPlan &plan)
{
    TraceRequest &req = *plan.req;

    PublishEffects fx;
    TraceReport &report = fx.report;
    report.request_id = req.id;
    report.app = req.app;
    report.period = plan.period;

    std::vector<std::vector<std::uint64_t>> decoded_profiles;
    std::vector<std::vector<std::uint64_t>> truth_profiles;
    double cpi_sum = 0.0;

    for (SessionPlan &session : plan.sessions) {
        ExperimentResult &result = session.result;

        // Data path: raw trace objects for OSS, decoded rows for ODPS.
        std::uint64_t bytes = 0;
        for (CollectedTrace &ct : result.raw_traces) {
            bytes += ct.bytes.size();
            std::string key = "traces/" + req.app + "/req" +
                              std::to_string(req.id) + "/node" +
                              std::to_string(session.node) + "/core" +
                              std::to_string(ct.core);
            fx.objects.emplace_back(std::move(key), std::move(ct.bytes));
        }
        report.total_trace_bytes += bytes;

        TraceRow row;
        row.app = req.app;
        row.node = session.node;
        row.request_id = req.id;
        row.period = plan.period;
        row.decoded_branches = result.decoded_branches;
        row.accuracy = result.accuracy_wall;
        row.function_insns = result.decoded_function_insns;
        row.function_entries = result.decoded_function_entries;
        fx.rows.push_back(std::move(row));

        report.traced_nodes.push_back(session.node);
        report.per_worker_accuracy.push_back(result.accuracy_wall);
        decoded_profiles.push_back(result.decoded_function_insns);
        truth_profiles.push_back(result.truth_function_insns);
        cpi_sum += result.at(req.app).cpi;
    }

    // Trace augmentation: merge repetitions, score against the merged
    // reference (§3.4, Fig. 20).
    report.merged_function_insns = mergeFunctionProfiles(decoded_profiles);
    report.merged_truth_function_insns =
        mergeFunctionProfiles(truth_profiles);
    report.merged_accuracy =
        wallWeightAccuracy(report.merged_function_insns,
                           report.merged_truth_function_insns);
    report.mean_target_cpi =
        plan.workers.empty()
            ? 0.0
            : cpi_sum / static_cast<double>(plan.workers.size());

    fx.ledger.app = req.app;
    fx.ledger.sessions = plan.sessions.size();
    fx.ledger.period = plan.period;
    fx.ledger.trace_bytes = report.total_trace_bytes;
    return fx;
}

}  // namespace exist
