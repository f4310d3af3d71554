/**
 * @file
 * Figure 17: deployment overheads of EXIST itself — the node-level
 * startup cost (insmod spike, then near-zero tracing-facility CPU) and
 * the cluster-level orchestration footprint (the RCO management pod's
 * cores and memory on a ten-node cluster, extrapolated to thousand
 * scale).
 */
#include <cstdio>

#include "cluster/shard/sharded_master.h"
#include "common.h"
#include "core/exist_backend.h"
#include "os/costs.h"

using namespace exist;
using namespace exist::bench;

int
main()
{
    printBanner("Figure 17 (left): node-level startup and tracing "
                "facility cost");

    // Node-level: run one EXIST session and report the facility's own
    // CPU consumption phases.
    ExperimentSpec spec = computeSpec("om", "EXIST", 0.4);
    spec.decode = false;
    ExperimentResult r = Testbed::run(spec);

    double insmod_cores =
        static_cast<double>(costs::kInsmodCost) /
        static_cast<double>(secondsToCycles(1.0));
    TableWriter node_table({"Phase", "CPU cores", "Notes"});
    node_table.row({"insmod (startup)",
                    TableWriter::num(insmod_cores, 3),
                    "one-time kernel module load"});
    node_table.row(
        {"tracing (steady)",
         TableWriter::num(
             r.backend_stats.msr_writes * 1e-6, 4),
         std::to_string(r.backend_stats.control_ops) +
             " control ops for the whole session"});
    node_table.print();

    printBanner("Figure 17 (right): cluster-level orchestration "
                "footprint");
    TableWriter mgmt({"Cluster size", "RCO cores", "RCO memory (MB)",
                      "Per-node overhead"});
    for (int nodes : {10, 100, 1000}) {
        ClusterConfig cc;
        cc.num_nodes = nodes;
        Cluster cluster(cc);
        ShardedMaster master(&cluster, {}, /*shards=*/1);
        auto fp = master.managementFootprint();
        mgmt.row({std::to_string(nodes),
                  TableWriter::num(fp.cores, 4),
                  TableWriter::num(fp.memory_mb, 1),
                  TableWriter::pct(fp.cores / nodes /
                                       cluster.config().cores_per_node,
                                   4)});
    }
    mgmt.print();
    std::printf("\nPaper shape: ~0.05-core startup spike, then "
                "negligible facility CPU; <3e-3 cores and ~40 MB of "
                "management for ten nodes; sub-permille management "
                "overhead at thousand scale.\n");
    return 0;
}
