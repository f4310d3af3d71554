/**
 * @file
 * Figure 12 (motivation for RCO): tracing more repetitions of the same
 * workload yields linearly growing cost but diminishing coverage gains,
 * because replicas behave similarly. We trace 1..5 replicas of the same
 * application through the cluster master and report trace similarity
 * (mean pairwise overlap of decoded function sets), trace coverage
 * (union of decoded functions over the merged reference) and trace cost
 * (bytes, normalized to one repetition).
 */
#include <cstdio>
#include <vector>

#include "cluster/shard/sharded_master.h"
#include "common.h"

using namespace exist;
using namespace exist::bench;

namespace {

double
pairwiseSimilarity(const std::vector<const TraceRow *> &rows)
{
    if (rows.size() < 2)
        return 1.0;
    double sum = 0;
    int pairs = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t j = i + 1; j < rows.size(); ++j) {
            std::size_t inter = 0, uni = 0;
            std::size_t n = std::max(rows[i]->function_insns.size(),
                                     rows[j]->function_insns.size());
            for (std::size_t f = 0; f < n; ++f) {
                bool a = f < rows[i]->function_insns.size() &&
                         rows[i]->function_insns[f] > 0;
                bool b = f < rows[j]->function_insns.size() &&
                         rows[j]->function_insns[f] > 0;
                inter += (a && b) ? 1 : 0;
                uni += (a || b) ? 1 : 0;
            }
            sum += uni ? static_cast<double>(inter) /
                             static_cast<double>(uni)
                       : 1.0;
            ++pairs;
        }
    }
    return sum / pairs;
}

}  // namespace

int
main()
{
    printBanner("Figure 12: performance of tracing multiple "
                "repetitions");

    TableWriter table({"Repetitions", "Similarity(%)", "Coverage(%)",
                       "Cost(norm)"});
    double cost1 = 0;
    for (int reps = 1; reps <= 5; ++reps) {
        ClusterConfig cc;
        cc.num_nodes = 5;
        cc.cores_per_node = 6;
        cc.seed = 21;
        Cluster cluster(cc);
        cluster.deploy("Search1", 5);

        ShardedMaster master(&cluster);
        TraceRequest req;
        req.app = "Search1";
        req.anomaly = true;  // trace all five; evaluate prefixes
        req.period_override = scaledSeconds(0.15);
        std::uint64_t id = master.submit(req);

        // Force the repetition count by adjusting RCO via priority is
        // indirect; instead trace through anomaly/threshold semantics:
        // run the request, then keep only the first `reps` rows.
        master.reconcile();
        auto rows_all = master.odps().queryRequest(id);
        std::vector<const TraceRow *> rows(
            rows_all.begin(),
            rows_all.begin() +
                std::min<std::size_t>(rows_all.size(),
                                      static_cast<std::size_t>(reps)));

        // Coverage: union of decoded functions over the exhaustive set
        // (approximated by the 5-worker union).
        std::vector<bool> unioned, full;
        auto extend = [](std::vector<bool> &v, std::size_t n) {
            if (v.size() < n)
                v.resize(n, false);
        };
        for (const TraceRow *r : rows_all) {
            extend(full, r->function_insns.size());
            for (std::size_t f = 0; f < r->function_insns.size(); ++f)
                full[f] = full[f] || r->function_insns[f] > 0;
        }
        for (const TraceRow *r : rows) {
            extend(unioned, r->function_insns.size());
            for (std::size_t f = 0; f < r->function_insns.size(); ++f)
                unioned[f] = unioned[f] || r->function_insns[f] > 0;
        }
        std::size_t cov = 0, tot = 0;
        for (std::size_t f = 0; f < full.size(); ++f) {
            if (full[f]) {
                ++tot;
                if (f < unioned.size() && unioned[f])
                    ++cov;
            }
        }

        double cost = 0;
        for (const TraceRow *r : rows)
            cost += static_cast<double>(r->decoded_branches);
        if (reps == 1)
            cost1 = cost;

        table.row({std::to_string(reps),
                   TableWriter::num(100 * pairwiseSimilarity(rows), 1),
                   TableWriter::num(
                       tot ? 100.0 * cov / static_cast<double>(tot)
                           : 100.0,
                       1),
                   TableWriter::num(cost1 > 0 ? cost / cost1 : 1.0,
                                    2)});
    }
    table.print();
    std::printf("\nPaper shape: cost grows linearly with repetitions; "
                "similarity stays high, so coverage gains diminish.\n");
    return 0;
}
