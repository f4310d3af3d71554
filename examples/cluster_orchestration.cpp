/**
 * @file
 * Cluster-level orchestration: the cloud-native integration of §4 and
 * the coverage optimizer of §3.4, end to end.
 *
 * A ten-node cluster runs several deployed applications. A user applies
 * a TraceRequest manifest through the unified interface; the master's
 * controller reconciles it: RCO picks the tracing period from the app's
 * complexity and the repetitions from its deployment, each selected
 * worker runs an EXIST session, raw traces land in the object store,
 * decoded rows in the table store, and the merged report is returned.
 */
#include <cstdio>

#include "cluster/shard/sharded_master.h"

using namespace exist;

int
main()
{
    // A small production-like cluster.
    ClusterConfig cluster_cfg;
    cluster_cfg.num_nodes = 10;
    cluster_cfg.cores_per_node = 6;
    cluster_cfg.seed = 2025;
    Cluster cluster(cluster_cfg);
    cluster.deploy("Search1", 8);
    cluster.deploy("Cache", 6);
    cluster.deploy("Agent", 10);

    ShardedMaster master(&cluster);

    // The user-facing configuration interface: apply manifests.
    std::uint64_t profiling = master.apply(
        "app=Search1 budget_mb=500");
    std::uint64_t anomaly = master.apply(
        "app=Cache anomaly=true period_ms=150");

    std::printf("Applied requests:\n");
    for (std::uint64_t id : {profiling, anomaly}) {
        const TraceRequest *req = master.request(id);
        std::printf("  #%llu %-40s phase=%s\n",
                    (unsigned long long)id, req->toManifest().c_str(),
                    requestPhaseName(req->phase));
    }

    // The controller reconciles all pending requests.
    master.reconcile();

    for (std::uint64_t id : {profiling, anomaly}) {
        const TraceRequest *req = master.request(id);
        const TraceReport *rep = master.report(id);
        std::printf("\nRequest #%llu (%s) -> %s\n",
                    (unsigned long long)id, req->app.c_str(),
                    requestPhaseName(req->phase));
        AppDeployment meta = cluster.metadataFor(req->app, req->anomaly);
        std::printf("  RCO complexity        : %.2f -> period %.0f ms\n",
                    master.rco().complexity(meta),
                    cyclesToMs(rep->period));
        std::printf("  repetitions traced    : %zu of %d replicas%s\n",
                    rep->traced_nodes.size(), meta.replicas,
                    req->anomaly ? " (anomaly: trace all)" : "");
        std::printf("  per-worker accuracy   :");
        for (double a : rep->per_worker_accuracy)
            std::printf(" %.1f%%", 100 * a);
        std::printf("\n  merged accuracy       : %.1f%%\n",
                    100 * rep->merged_accuracy);
        std::printf("  trace data in OSS     : %.1f MB (model bytes)\n",
                    rep->total_trace_bytes / 1048576.0);
    }

    std::printf("\nData plane:\n");
    std::printf("  OSS objects   : %zu (%.1f MB)\n",
                master.oss().objectCount(),
                master.oss().totalBytes() / 1048576.0);
    std::printf("  ODPS rows     : %zu (queryable by app/request)\n",
                master.odps().rowCount());
    auto rows = master.odps().queryApp("Search1");
    std::printf("  ODPS query    : %zu rows for Search1\n", rows.size());

    auto fp = master.managementFootprint();
    std::printf("  management    : %.4f cores, %.0f MB (ten nodes)\n",
                fp.cores, fp.memory_mb);
    return 0;
}
