/**
 * @file
 * Control-plane reconcile throughput: one submit stream of trace
 * requests against a demo cluster, reconciled by the serial reference
 * (one lane, one thread) and by the ShardedMaster at shard counts
 * 1/2/4/8 with as many threads. Reports wall-clock requests/s and the
 * p99 reconcile latency from the control plane's own metrics
 * registry, and verifies on every configuration that the output —
 * reports, OSS bytes, ODPS rows, coverage ledger — is bit-identical
 * to the serial reference.
 *
 * Besides the human-readable table, each configuration emits one
 * machine-readable JSON line (prefix "JSON ") so CI can track the
 * trajectory via tools/bench_trends.py --set cluster:
 *   JSON {"bench":"reconcile_throughput","shards":4,...}
 */
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/metrics.h"
#include "cluster/shard/sharded_master.h"
#include "common.h"

using namespace exist;
using namespace exist::bench;

namespace {

ClusterConfig
demoConfig()
{
    ClusterConfig cc;
    cc.num_nodes = 10;
    cc.cores_per_node = 4;
    cc.seed = 2024;
    return cc;
}

void
deployDemo(Cluster &cluster)
{
    cluster.deploy("Search2", 3);
    cluster.deploy("Cache", 3);
    cluster.deploy("Prediction", 2);
}

/** The benchmark submit stream: anomaly and routine requests mixed
 *  across the deployed apps, period scaled for smoke runs. */
std::vector<std::string>
manifests()
{
    int period_ms =
        static_cast<int>(30.0 * periodScale() + 0.5);
    if (period_ms < 5)
        period_ms = 5;
    std::string p = " period_ms=" + std::to_string(period_ms) +
                    " budget_mb=64";
    std::vector<std::string> out;
    const char *apps[] = {"Search2", "Cache", "Prediction"};
    for (int i = 0; i < 12; ++i) {
        std::string m = "app=" + std::string(apps[i % 3]);
        if (i % 2 == 0)
            m += " anomaly=true";
        out.push_back(m + p);
    }
    return out;
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
    printBanner("Reconcile throughput: serial reference vs "
                "ShardedMaster at 1/2/4/8 shards");

    const std::vector<std::string> stream = manifests();
    std::printf("submit stream: %zu requests over 3 apps "
                "(scale %.2f)\n\n",
                stream.size(), periodScale());

    // Serial reference: one lane, everything inline on this thread.
    Cluster serial_cluster(demoConfig());
    deployDemo(serial_cluster);
    metrics::Registry serial_registry;
    ShardedMaster serial(&serial_cluster, {}, 1, 1, &serial_registry);
    std::vector<std::uint64_t> ids;
    for (const std::string &m : stream)
        ids.push_back(serial.apply(m));
    auto t0 = std::chrono::steady_clock::now();
    serial.reconcile();
    double serial_s = secondsSince(t0);
    double serial_rps = stream.size() / serial_s;
    std::uint64_t serial_p99 =
        serial_registry.histogram("reconcile.latency_us").percentile(0.99);

    TableWriter table({"Mode", "Shards", "Time(ms)", "Requests/s",
                       "p99(us)", "Speedup", "Identical"});
    table.row({"serial", "1", TableWriter::num(serial_s * 1e3),
               TableWriter::num(serial_rps), std::to_string(serial_p99),
               "1.00", "ref"});
    std::printf("JSON {\"bench\":\"reconcile_throughput\","
                "\"mode\":\"serial\",\"shards\":1,\"requests\":%zu,"
                "\"sessions\":%llu,\"seconds\":%.6f,"
                "\"requests_per_sec\":%.3f,\"p99_latency_us\":%llu,"
                "\"speedup\":1.0,\"identical\":true}\n",
                stream.size(), (unsigned long long)serial.sessionsRun(),
                serial_s, serial_rps, (unsigned long long)serial_p99);

    bool all_identical = true;
    for (int shards : {1, 2, 4, 8}) {
        Cluster cluster(demoConfig());
        deployDemo(cluster);
        metrics::Registry registry;
        ShardedMaster master(&cluster, {}, shards, shards, &registry);
        for (const std::string &m : stream)
            master.apply(m);

        auto t1 = std::chrono::steady_clock::now();
        master.reconcile();
        double s = secondsSince(t1);
        double rps = stream.size() / s;
        double speedup = serial_s / s;
        std::uint64_t p99 =
            registry.histogram("reconcile.latency_us").percentile(0.99);

        // The whole point: the sharded plane must be bit-identical to
        // the serial one, or the speedup is meaningless.
        bool identical = true;
        for (std::uint64_t id : ids) {
            const TraceReport *a = serial.report(id);
            const TraceReport *b = master.report(id);
            if ((a == nullptr) != (b == nullptr) ||
                (a != nullptr && !(*a == *b)))
                identical = false;
        }
        identical = identical &&
                    serial.oss().totalBytes() ==
                        master.oss().totalBytes() &&
                    serial.odps().rowCount() == master.odps().rowCount() &&
                    serial.coverage() == master.coverage();
        all_identical = all_identical && identical;

        table.row({"sharded", std::to_string(shards),
                   TableWriter::num(s * 1e3), TableWriter::num(rps),
                   std::to_string(p99), TableWriter::num(speedup),
                   identical ? "yes" : "NO"});
        std::printf("JSON {\"bench\":\"reconcile_throughput\","
                    "\"mode\":\"sharded\",\"shards\":%d,"
                    "\"requests\":%zu,\"sessions\":%llu,"
                    "\"seconds\":%.6f,\"requests_per_sec\":%.3f,"
                    "\"p99_latency_us\":%llu,\"speedup\":%.3f,"
                    "\"identical\":%s}\n",
                    shards, stream.size(),
                    (unsigned long long)master.sessionsRun(), s, rps,
                    (unsigned long long)p99, speedup,
                    identical ? "true" : "false");
    }

    std::printf("\n");
    table.print();
    std::printf("\nshard speedup saturates at min(shards, pending "
                "requests, hardware threads)\n");
    if (!all_identical) {
        std::fputs("sharded reconcile diverged from serial!\n", stderr);
        return 1;
    }
    return 0;
}
