/**
 * @file
 * Figure 20: cluster-level trace augmentation. Search1 runs on ten
 * workers; traces from 1, 3 and 10 workers are merged (dedup +
 * complement, §3.4). The paper reports up to +11% accuracy from
 * merging, with no extra node-level cost.
 */
#include <cstdio>
#include <vector>

#include "analysis/accuracy.h"
#include "cluster/shard/sharded_master.h"
#include "common.h"

using namespace exist;
using namespace exist::bench;

int
main()
{
    printBanner("Figure 20: accuracy under cluster-level sampling and "
                "trace augmentation (Search1)");

    const std::vector<double> periods = {0.1, 0.5, 1.0};
    const std::vector<int> worker_counts = {1, 3, 10};

    TableWriter table({"Period(s)", "Workers", "MeanSingle",
                       "Merged", "Gain"});
    for (double period : periods) {
        ClusterConfig cc;
        cc.num_nodes = 10;
        cc.cores_per_node = 6;
        cc.seed = 33;
        Cluster cluster(cc);
        cluster.deploy("Search1", 10);
        ShardedMaster master(&cluster);

        // Anomaly request: RCO traces all ten repetitions; we then
        // evaluate merging prefixes of 1, 3 and 10 workers.
        TraceRequest req;
        req.app = "Search1";
        req.anomaly = true;
        req.period_override = scaledSeconds(period);
        req.budget_mb = 72;
        std::uint64_t id = master.submit(req);
        master.reconcile();
        const TraceReport *rep = master.report(id);
        auto rows = master.odps().queryRequest(id);

        for (int count : worker_counts) {
            std::size_t n = std::min<std::size_t>(
                rows.size(), static_cast<std::size_t>(count));
            std::vector<std::vector<std::uint64_t>> profiles;
            double single_sum = 0;
            for (std::size_t i = 0; i < n; ++i) {
                profiles.push_back(rows[i]->function_insns);
                // Single-worker accuracy vs the common reference: one
                // worker sees only its own phases of the application.
                single_sum += wallWeightAccuracy(
                    rows[i]->function_insns,
                    rep->merged_truth_function_insns);
            }
            std::vector<std::uint64_t> merged =
                mergeFunctionProfiles(profiles);
            // Reference: the merged exhaustive (ground-truth) profile
            // across all ten workers — the best approximation of the
            // application's true behaviour.
            double merged_acc = wallWeightAccuracy(
                merged, rep->merged_truth_function_insns);
            double mean_single = single_sum / static_cast<double>(n);
            table.row({TableWriter::num(period, 1),
                       std::to_string(count),
                       TableWriter::pct(mean_single, 1),
                       TableWriter::pct(merged_acc, 1),
                       TableWriter::pct(merged_acc - mean_single, 1)});
        }
    }
    table.print();
    std::printf("\nPaper shape: synthesizing traces from more workers "
                "improves accuracy (up to ~11%%) with no extra "
                "node-level tracing cost.\n");
    return 0;
}
