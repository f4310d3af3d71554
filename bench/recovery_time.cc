/**
 * @file
 * Durability-plane recovery benchmark (DESIGN.md §12). Two headline
 * numbers, each as a machine-readable JSON line for
 * tools/bench_trends.py --set durability:
 *
 *  - WAL replay throughput (MB/s): raw Wal::replay over the full log
 *    of the longest un-snapshotted run;
 *  - end-to-end recovery latency (recover + rebuild + reconcile) as
 *    a function of snapshot_interval {0,2,4,8} at 8 vs 16 completed
 *    requests — demonstrating the snapshot contract: with snapshots
 *    on, the replayed tail (and hence recovery time) is bounded by
 *    the interval, not by how long the experiment ran.
 */
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/shard/sharded_master.h"
#include "common.h"
#include "durability/journal.h"
#include "durability/recovery.h"
#include "durability/spec.h"
#include "durability/wal.h"

using namespace exist;
using namespace exist::bench;

namespace {

namespace fs = std::filesystem;

constexpr int kShards = 2;
constexpr int kEpochRequests = 4;  ///< reconcile/snapshot cadence

ClusterConfig
demoConfig()
{
    ClusterConfig cc;
    cc.num_nodes = 6;
    cc.cores_per_node = 4;
    cc.seed = 2025;
    return cc;
}

std::string
manifest()
{
    int period_ms = static_cast<int>(15.0 * periodScale() + 0.5);
    if (period_ms < 5)
        period_ms = 5;
    return "app=Cache anomaly=true period_ms=" +
           std::to_string(period_ms) + " budget_mb=64";
}

durability::ClusterMeta
metaFor(std::uint64_t snapshot_interval)
{
    ClusterConfig cc = demoConfig();
    durability::ClusterMeta meta;
    meta.cluster_seed = cc.seed;
    meta.num_nodes = cc.num_nodes;
    meta.cores_per_node = cc.cores_per_node;
    meta.shards = kShards;
    meta.snapshot_interval = snapshot_interval;
    meta.deployments = {{"Cache", 3}};
    return meta;
}

/** Run `requests` to completion under a journal, snapshotting at
 *  every epoch boundary the interval allows. */
void
buildLog(const fs::path &dir, int requests,
         std::uint64_t snapshot_interval)
{
    fs::remove_all(dir);
    Cluster cluster(demoConfig());
    cluster.deploy("Cache", 3);
    durability::DurabilitySpec spec;
    spec.wal_dir = dir.string();
    spec.snapshot_interval = snapshot_interval;
    durability::Journal journal(spec, metaFor(snapshot_interval));
    ShardedMaster master(&cluster, {}, kShards, kShards);
    master.attachJournal(&journal);
    std::string m = manifest();
    for (int done = 0; done < requests; done += kEpochRequests) {
        for (int i = 0; i < kEpochRequests; ++i)
            master.apply(m);
        master.reconcile();
        journal.maybeSnapshot(
            [&master] { return master.dumpState(); });
    }
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

int
main()
{
    printBanner("Durability plane: WAL replay throughput and "
                "recovery latency vs snapshot interval");
    std::printf("%d shards, %d-request reconcile epochs "
                "(scale %.2f)\n\n",
                kShards, kEpochRequests, periodScale());

    TableWriter table({"Requests", "Interval", "WAL recs", "WAL KB",
                       "Snapshot", "Recover(ms)"});

    for (int requests : {8, 16}) {
        for (std::uint64_t interval : {0, 2, 4, 8}) {
            fs::path dir = "recovery_bench_wal";
            buildLog(dir, requests, interval);

            auto t0 = std::chrono::steady_clock::now();
            durability::RecoveryResult rec =
                durability::recover(dir.string());
            if (!rec.ok) {
                std::fprintf(stderr, "recovery failed: %s\n",
                             rec.error.c_str());
                return 1;
            }
            // The recovered image must already hold every publish:
            // rebuild + reconcile is a no-op on a crash-free log, so
            // the timed region is the true recovery cost.
            Cluster cluster(demoConfig());
            cluster.deploy("Cache", 3);
            ShardedMaster master(&cluster, {}, kShards, kShards);
            master.restoreForRecovery(rec.state.dump);
            master.reconcile();
            double recover_s = secondsSince(t0);

            const auto &t = rec.state.telemetry;
            if (rec.state.dump.requests.size() !=
                    static_cast<std::size_t>(requests) ||
                t.pending_requests != 0) {
                std::fprintf(stderr,
                             "recovered state incomplete: %zu/%d "
                             "requests, %llu pending\n",
                             rec.state.dump.requests.size(), requests,
                             (unsigned long long)t.pending_requests);
                return 1;
            }

            table.row({std::to_string(requests),
                       interval == 0 ? "off"
                                     : std::to_string(interval),
                       std::to_string(t.wal_records),
                       TableWriter::num(t.wal_bytes / 1024.0),
                       t.snapshot_used ? "yes" : "no",
                       TableWriter::num(recover_s * 1e3)});
            std::printf(
                "JSON {\"bench\":\"recovery_time\","
                "\"requests\":%d,\"snapshot_interval\":%llu,"
                "\"wal_records\":%llu,\"wal_bytes\":%llu,"
                "\"snapshot_used\":%s,\"replayed_publishes\":%llu,"
                "\"recovery_s\":%.6f}\n",
                requests, (unsigned long long)interval,
                (unsigned long long)t.wal_records,
                (unsigned long long)t.wal_bytes,
                t.snapshot_used ? "true" : "false",
                (unsigned long long)t.replayed_publishes, recover_s);

            // Raw replay throughput over the longest full log.
            if (requests == 16 && interval == 0) {
                auto r0 = std::chrono::steady_clock::now();
                durability::Wal::ReplayResult rr =
                    durability::Wal::replay(dir.string(), 1);
                double replay_s = secondsSince(r0);
                if (!rr.ok) {
                    std::fprintf(stderr, "replay failed: %s\n",
                                 rr.error.c_str());
                    return 1;
                }
                double mb = rr.bytes_read / (1024.0 * 1024.0);
                std::printf(
                    "JSON {\"bench\":\"recovery_time\","
                    "\"mode\":\"wal_replay\",\"records\":%zu,"
                    "\"bytes\":%llu,\"seconds\":%.6f,"
                    "\"replay_mb_per_sec\":%.2f}\n",
                    rr.records.size(),
                    (unsigned long long)rr.bytes_read, replay_s,
                    replay_s > 0 ? mb / replay_s : 0.0);
                std::printf("\nfull-log replay: %.1f MB in %.1f ms "
                            "(%.0f MB/s)\n\n",
                            mb, replay_s * 1e3,
                            replay_s > 0 ? mb / replay_s : 0.0);
            }
            fs::remove_all(dir);
        }
    }

    table.print();
    std::printf("\nwith snapshots on, the replayed tail is bounded "
                "by the interval — recovery latency stays flat as "
                "the run doubles; interval=off replays the whole "
                "log and scales with it.\n");
    return 0;
}
