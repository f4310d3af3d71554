/**
 * @file
 * Cluster-layer tests: CRD parsing, storage backends, placement, and
 * the master's reconcile loop end to end.
 */
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "cluster/crd.h"
#include "cluster/shard/sharded_master.h"
#include "cluster/storage.h"

namespace exist {
namespace {

/** A manifest the test expects to parse. */
TraceRequest
parsed(const std::string &manifest)
{
    TraceRequest req;
    std::string error;
    EXPECT_TRUE(TraceRequest::parse(manifest, &req, &error))
        << manifest << ": " << error;
    return req;
}

TEST(Crd, ParsesManifest)
{
    TraceRequest req = parsed(
        "app=Search1 anomaly=true period_ms=250 budget_mb=300 "
        "ring=true core_sample_ratio=0.5");
    EXPECT_EQ(req.app, "Search1");
    EXPECT_TRUE(req.anomaly);
    EXPECT_EQ(req.period_override, 250 * kCyclesPerMs);
    EXPECT_EQ(req.budget_mb, 300u);
    EXPECT_TRUE(req.ring_buffers);
    EXPECT_DOUBLE_EQ(req.core_sample_ratio, 0.5);
    EXPECT_EQ(req.phase, RequestPhase::kPending);

    // Range edges are accepted; 1 and 0 are booleans too.
    TraceRequest edge = parsed(
        "app=Cache anomaly=1 ring=0 period_ms=1e9 budget_mb=1048576 "
        "core_sample_ratio=1 net=true loss=0 link_latency_us=0");
    EXPECT_TRUE(edge.anomaly);
    EXPECT_FALSE(edge.ring_buffers);
    EXPECT_EQ(edge.period_override, 1'000'000'000 * kCyclesPerMs);
    EXPECT_EQ(edge.budget_mb, 1048576u);
    EXPECT_DOUBLE_EQ(edge.core_sample_ratio, 1.0);
    EXPECT_DOUBLE_EQ(edge.net_link_latency_us, 0.0);
}

TEST(Crd, DefaultsAndRoundTrip)
{
    TraceRequest req = parsed("app=Cache");
    EXPECT_FALSE(req.anomaly);
    EXPECT_EQ(req.period_override, 0u);
    EXPECT_EQ(req.budget_mb, 500u);
    TraceRequest again = parsed(req.toManifest());
    EXPECT_EQ(again.app, req.app);
    EXPECT_EQ(again.budget_mb, req.budget_mb);

    // A fractional period renders so that it re-parses to the same
    // cycle count (recovery replays the rendered manifest).
    TraceRequest frac = parsed("app=Cache period_ms=30.7");
    EXPECT_EQ(frac.toManifest(), "app=Cache period_ms=30.7 budget_mb=500");
    EXPECT_EQ(parsed(frac.toManifest()).period_override,
              frac.period_override);
}

TEST(Crd, RejectsMalformedManifests)
{
    // Every bad manifest is an error naming the culprit, never an
    // abort, and leaves the output untouched.
    const std::pair<const char *, const char *> cases[] = {
        {"appSearch1", "malformed manifest token 'appSearch1'"},
        {"app=x frobnicate=1", "unknown manifest key 'frobnicate'"},
        {"anomaly=true", "manifest missing app="},
        {"", "manifest missing app="},
        {"app=", "app wants an application name"},
        {"app=x period_ms=abc", "period_ms wants"},
        {"app=x period_ms=0", "period_ms wants"},
        {"app=x period_ms=-5", "period_ms wants"},
        {"app=x period_ms=5x", "period_ms wants"},
        {"app=x period_ms=inf", "period_ms wants"},
        {"app=x period_ms=nan", "period_ms wants"},
        {"app=x period_ms=1e300", "period_ms wants"},
        {"app=x period_ms=1e-9", "period_ms wants"},
        {"app=x budget_mb=0", "budget_mb wants"},
        {"app=x budget_mb=-1", "budget_mb wants"},
        {"app=x budget_mb=1.5", "budget_mb wants"},
        {"app=x budget_mb=99999999999999999999999", "budget_mb wants"},
        {"app=x anomaly=yes", "anomaly wants true, false, 1 or 0"},
        {"app=x ring=on", "ring wants"},
        {"app=x net=TRUE", "net wants"},
        {"app=x loss=x", "loss wants a probability in [0, 1)"},
        {"app=x loss=1", "loss wants"},
        {"app=x reorder=-0.1", "reorder wants"},
        {"app=x duplicate=nan", "duplicate wants"},
        {"app=x core_sample_ratio=1.5", "core_sample_ratio wants"},
        {"app=x link_latency_us=-1", "link_latency_us wants"},
        // Keys this CRD no longer has.
        {"app=x wal=/x", "unknown manifest key 'wal'"},
        {"app=x snapshot_interval=4",
         "unknown manifest key 'snapshot_interval'"},
        {"app=x decode_cache=off", "unknown manifest key 'decode_cache'"},
        {"app=x tnt_memo_bits=0", "unknown manifest key 'tnt_memo_bits'"},
        {"app=x streaming=true", "unknown manifest key 'streaming'"},
    };
    for (const auto &[manifest, want] : cases) {
        TraceRequest req;
        req.app = "untouched";
        std::string error;
        EXPECT_FALSE(TraceRequest::parse(manifest, &req, &error))
            << manifest;
        EXPECT_NE(error.find(want), std::string::npos)
            << manifest << " -> " << error;
        EXPECT_EQ(req.app, "untouched") << manifest;
    }

    // set() leaves the request as it was on a bad value.
    TraceRequest req = parsed("app=Cache period_ms=40");
    std::string error;
    EXPECT_FALSE(req.set("period_ms", "abc", &error));
    EXPECT_EQ(req.period_override, 40 * kCyclesPerMs);
}

TEST(ObjectStoreTest, PutGetListAndOverwrite)
{
    ObjectStore oss;
    oss.put("traces/a/1", {1, 2, 3});
    oss.put("traces/a/2", {4, 5});
    oss.put("traces/b/1", {6});
    EXPECT_TRUE(oss.exists("traces/a/1"));
    EXPECT_FALSE(oss.exists("traces/c"));
    EXPECT_EQ(oss.get("traces/a/2").size(), 2u);
    EXPECT_EQ(oss.listPrefix("traces/a/").size(), 2u);
    EXPECT_EQ(oss.totalBytes(), 6u);
    oss.put("traces/a/1", {9, 9, 9, 9});  // overwrite adjusts size
    EXPECT_EQ(oss.totalBytes(), 7u);
    EXPECT_EQ(oss.objectCount(), 3u);
}

/** (request_id, node, period) of each row, in the order given. */
std::vector<std::tuple<std::uint64_t, NodeId, Cycles>>
rowKeys(const std::vector<const TraceRow *> &rows)
{
    std::vector<std::tuple<std::uint64_t, NodeId, Cycles>> keys;
    for (const TraceRow *r : rows)
        keys.emplace_back(r->request_id, r->node, r->period);
    return keys;
}

TEST(OdpsTableTest, QueriesByAppAndRequest)
{
    // Rows arrive out of (request_id, node) order. Every view returns
    // them in that order, and rows with equal keys (two replicas on
    // one node) in insertion order, told apart here by `period`.
    OdpsTable odps;
    odps.insert(TraceRow{.app = "a", .node = 2, .request_id = 11});
    odps.insert(TraceRow{.app = "b", .node = 3, .request_id = 10});
    odps.insert(
        TraceRow{.app = "a", .node = 1, .request_id = 11, .period = 1});
    odps.insert(TraceRow{.app = "a", .node = 1, .request_id = 10});
    odps.insert(
        TraceRow{.app = "a", .node = 1, .request_id = 11, .period = 2});
    using Key = std::tuple<std::uint64_t, NodeId, Cycles>;

    EXPECT_EQ(rowKeys(odps.queryApp("a")),
              (std::vector<Key>{{10, 1, 0}, {11, 1, 1}, {11, 1, 2},
                                {11, 2, 0}}));
    EXPECT_EQ(rowKeys(odps.queryRequest(10)),
              (std::vector<Key>{{10, 1, 0}, {10, 3, 0}}));
    EXPECT_EQ(rowKeys(odps.queryRequest(11)),
              (std::vector<Key>{{11, 1, 1}, {11, 1, 2}, {11, 2, 0}}));
    EXPECT_TRUE(odps.queryApp("c").empty());
    EXPECT_TRUE(odps.queryRequest(12).empty());

    // The dump copy durability snapshots serialize: the same order.
    std::vector<TraceRow> all = odps.allRows();
    std::vector<const TraceRow *> all_ptrs;
    for (const TraceRow &r : all)
        all_ptrs.push_back(&r);
    EXPECT_EQ(rowKeys(all_ptrs),
              (std::vector<Key>{{10, 1, 0}, {10, 3, 0}, {11, 1, 1},
                                {11, 1, 2}, {11, 2, 0}}));
    EXPECT_EQ(odps.rowCount(), 5u);
}

TEST(ClusterTest, RoundRobinPlacement)
{
    Cluster cluster(ClusterConfig{.num_nodes = 4});
    cluster.deploy("a", 6);
    cluster.deploy("b", 2);
    EXPECT_EQ(cluster.replicasOf("a"), 6);
    EXPECT_EQ(cluster.replicasOf("b"), 2);
    // Six replicas over four nodes: max spread.
    int per_node[4] = {0, 0, 0, 0};
    for (const PodInstance *p : cluster.podsOf("a"))
        ++per_node[p->node];
    for (int n : per_node)
        EXPECT_GE(n, 1);
    EXPECT_EQ(cluster.podsOn(0).size() + cluster.podsOn(1).size() +
                  cluster.podsOn(2).size() + cluster.podsOn(3).size(),
              8u);
    EXPECT_EQ(cluster.deployedApps().size(), 2u);
}

TEST(ClusterTest, MetadataComesFromCatalog)
{
    Cluster cluster(ClusterConfig{.num_nodes = 2});
    cluster.deploy("Search1", 3);
    AppDeployment meta = cluster.metadataFor("Search1", true);
    EXPECT_EQ(meta.replicas, 3);
    EXPECT_TRUE(meta.anomaly);
    EXPECT_GT(meta.priority, 0.5);
    EXPECT_DEATH(cluster.metadataFor("Cache"), "not deployed");
}

TEST(MasterTest, ReconcileLifecycle)
{
    ClusterConfig cc;
    cc.num_nodes = 3;
    cc.cores_per_node = 4;
    Cluster cluster(cc);
    cluster.deploy("Cache", 3);
    ShardedMaster master(&cluster);

    std::uint64_t id = master.apply(
        "app=Cache anomaly=true period_ms=60");
    EXPECT_EQ(master.request(id)->phase, RequestPhase::kPending);
    master.reconcile();
    EXPECT_EQ(master.request(id)->phase, RequestPhase::kCompleted);

    const TraceReport *rep = master.report(id);
    ASSERT_NE(rep, nullptr);
    EXPECT_EQ(rep->app, "Cache");
    EXPECT_EQ(rep->traced_nodes.size(), 3u);  // anomaly: all replicas
    EXPECT_EQ(rep->period, 60 * kCyclesPerMs);
    EXPECT_GT(rep->merged_accuracy, 0.5);
    EXPECT_GT(rep->total_trace_bytes, 0u);
    EXPECT_EQ(master.sessionsRun(), 3u);

    // Data plane artifacts exist and are queryable.
    EXPECT_GE(master.oss().objectCount(), 3u);
    EXPECT_EQ(master.odps().queryRequest(id).size(), 3u);
    EXPECT_EQ(master.oss().listPrefix("traces/Cache/").size(),
              master.oss().objectCount());
}

TEST(MasterTest, UndeployedAppFails)
{
    Cluster cluster(ClusterConfig{.num_nodes = 2});
    ShardedMaster master(&cluster);
    std::uint64_t id = master.apply("app=NotThere");
    // Parsing accepts it (the app name is opaque until reconcile).
    master.reconcile();
    EXPECT_EQ(master.request(id)->phase, RequestPhase::kFailed);
    EXPECT_EQ(master.report(id), nullptr);
}

TEST(MasterTest, FootprintScalesSubLinearly)
{
    Cluster small(ClusterConfig{.num_nodes = 10});
    Cluster big(ClusterConfig{.num_nodes = 1000});
    ShardedMaster m1(&small), m2(&big);
    auto f1 = m1.managementFootprint();
    auto f2 = m2.managementFootprint();
    EXPECT_LT(f1.cores, 0.005);  // paper: <3e-3 cores at ten nodes
    EXPECT_LT(f2.cores / 1000.0, 0.001);  // per-mille at scale
    EXPECT_GT(f2.memory_mb, f1.memory_mb);
}

TEST(MasterTest, PersonalizedOptionsAreHonored)
{
    // Ring buffers + explicit core-sampling ratio flow from the CRD
    // manifest all the way into the node session.
    ClusterConfig cc;
    cc.num_nodes = 2;
    cc.cores_per_node = 4;
    Cluster cluster(cc);
    cluster.deploy("Search2", 2);  // CPU-share profile
    ShardedMaster master(&cluster);
    std::uint64_t id = master.apply(
        "app=Search2 anomaly=true period_ms=60 ring=true "
        "core_sample_ratio=0.5 budget_mb=64");
    master.reconcile();
    EXPECT_EQ(master.request(id)->phase, RequestPhase::kCompleted);
    const TraceReport *rep = master.report(id);
    ASSERT_NE(rep, nullptr);
    EXPECT_GT(rep->total_trace_bytes, 0u);
    // Half of the four cores sampled per worker: the OSS holds two
    // core objects per traced node.
    auto keys = master.oss().listPrefix("traces/Search2/");
    EXPECT_EQ(keys.size(), 2u * 2u);
}

}  // namespace
}  // namespace exist
