/**
 * @file
 * Sharded control-plane tests: the headline determinism guarantee
 * (ShardedMaster reports are bit-identical to the serial reference —
 * one lane, one thread — for any shard count × thread count × submit
 * order), commit-log ordering, and TSan-targeted stress of concurrent
 * submits, lane-level session fan-out, journaled publishes read back
 * while they commit, and the lock-striped metrics registry (runs in
 * the `concurrency` suite).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cluster/control_journal.h"
#include "cluster/metrics.h"
#include "cluster/shard/commit_log.h"
#include "cluster/shard/plan.h"
#include "cluster/shard/sharded_master.h"

namespace exist {
namespace {

ClusterConfig
smallConfig()
{
    ClusterConfig cc;
    cc.num_nodes = 3;
    cc.cores_per_node = 4;
    cc.seed = 7;
    return cc;
}

void
deployDemo(Cluster &cluster)
{
    cluster.deploy("Cache", 3);
    cluster.deploy("Search2", 2);
}

/** A submit stream mixing anomaly (all replicas) and routine
 *  (RNG-sampled workers) requests across two apps. */
std::vector<std::string>
demoManifests()
{
    return {
        "app=Cache anomaly=true period_ms=40 budget_mb=64",
        "app=Search2 period_ms=30 budget_mb=64",
        "app=Cache period_ms=30 budget_mb=64",
        "app=Search2 anomaly=true period_ms=40 budget_mb=64",
    };
}

void
expectReportsEqual(const TraceReport &a, const TraceReport &b)
{
    EXPECT_EQ(a.request_id, b.request_id);
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.period, b.period);
    EXPECT_EQ(a.traced_nodes, b.traced_nodes);
    EXPECT_EQ(a.per_worker_accuracy, b.per_worker_accuracy);
    EXPECT_EQ(a.merged_function_insns, b.merged_function_insns);
    EXPECT_EQ(a.merged_truth_function_insns,
              b.merged_truth_function_insns);
    EXPECT_EQ(a.total_trace_bytes, b.total_trace_bytes);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.merged_accuracy, b.merged_accuracy);
    EXPECT_EQ(a.mean_target_cpi, b.mean_target_cpi);
    EXPECT_TRUE(a == b);
}

std::vector<TraceRow>
sortedRows(std::vector<const TraceRow *> rows)
{
    std::vector<TraceRow> out;
    for (const TraceRow *r : rows)
        out.push_back(*r);
    std::sort(out.begin(), out.end(),
              [](const TraceRow &a, const TraceRow &b) {
                  if (a.request_id != b.request_id)
                      return a.request_id < b.request_id;
                  return a.node < b.node;
              });
    return out;
}

/** Run one submit stream through the serial reference (one lane, one
 *  thread) and a ShardedMaster with `shards` shards on `threads`
 *  threads, and compare every observable artifact. `pool_tasks`, if
 *  set, receives the tasks the sharded run executed on its pool. */
void
compareSerialVsSharded(const std::vector<std::string> &manifests,
                       int shards, int threads = 2,
                       std::int64_t *pool_tasks = nullptr)
{
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " threads=" + std::to_string(threads));

    Cluster serial_cluster(smallConfig());
    deployDemo(serial_cluster);
    metrics::Registry serial_registry;
    ShardedMaster serial(&serial_cluster, {}, 1, 1, &serial_registry);

    Cluster sharded_cluster(smallConfig());
    deployDemo(sharded_cluster);
    metrics::Registry registry;
    ShardedMaster sharded(&sharded_cluster, {}, shards, threads,
                          &registry);

    std::vector<std::uint64_t> serial_ids, sharded_ids;
    for (const std::string &m : manifests) {
        serial_ids.push_back(serial.apply(m));
        sharded_ids.push_back(sharded.apply(m));
    }
    ASSERT_EQ(serial_ids, sharded_ids);  // same global id stream

    serial.reconcile();
    sharded.reconcile();

    for (std::uint64_t id : serial_ids) {
        SCOPED_TRACE("request " + std::to_string(id));
        ASSERT_NE(serial.request(id), nullptr);
        ASSERT_NE(sharded.request(id), nullptr);
        EXPECT_EQ(serial.request(id)->phase, sharded.request(id)->phase);
        const TraceReport *a = serial.report(id);
        const TraceReport *b = sharded.report(id);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (a != nullptr)
            expectReportsEqual(*a, *b);
        // ODPS rows for the request match field-for-field.
        EXPECT_EQ(sortedRows(serial.odps().queryRequest(id)),
                  sortedRows(sharded.odps().queryRequest(id)));
    }

    // OSS holds the same objects with the same bytes.
    auto serial_keys = serial.oss().listPrefix("traces/");
    auto sharded_keys = sharded.oss().listPrefix("traces/");
    EXPECT_EQ(serial_keys, sharded_keys);
    for (const std::string &key : serial_keys)
        EXPECT_EQ(serial.oss().get(key), sharded.oss().get(key));
    EXPECT_EQ(serial.oss().totalBytes(), sharded.oss().totalBytes());
    EXPECT_EQ(serial.odps().rowCount(), sharded.odps().rowCount());

    // Coverage accounting committed in request order matches exactly.
    EXPECT_TRUE(serial.coverage() == sharded.coverage());
    EXPECT_EQ(serial.sessionsRun(), sharded.sessionsRun());
    EXPECT_EQ(serial_registry.counter("sessions.run").value(),
              registry.counter("sessions.run").value());

    // The control plane observed itself.
    EXPECT_EQ(registry.counter("api.submits").value(),
              manifests.size());
    EXPECT_EQ(registry.counter("commitlog.commits").value(),
              manifests.size());
    EXPECT_EQ(registry.histogram("reconcile.latency_us").count(),
              manifests.size());
    // Decode fast-path telemetry is summed from each session's decode.
    EXPECT_GT(registry.counter("decode.cache.hits").value() +
                  registry.counter("decode.cache.misses").value(),
              0u);
    EXPECT_GT(registry.counter("decode.cache.bytes").value(), 0u);
    std::uint64_t shard_reconciles = 0;
    for (int s = 0; s < sharded.shardCount(); ++s)
        shard_reconciles += registry
                                .counter("shard." + std::to_string(s) +
                                         ".reconciles")
                                .value();
    EXPECT_EQ(shard_reconciles, manifests.size());
    if (pool_tasks != nullptr)
        *pool_tasks = registry.gauge("pool.tasks_run").value();
}

TEST(ShardedMasterTest, BitIdenticalToSerialAcrossShardCounts)
{
    for (int shards : {1, 2, 4, 8})
        compareSerialVsSharded(demoManifests(), shards);
}

TEST(ShardedMasterTest, BitIdenticalUnderInterleavedSubmitOrders)
{
    // Same request set, different interleavings: each order forms its
    // own id stream; within an order, every shard count must agree
    // with the serial reference fed that same order.
    std::vector<std::string> reversed = demoManifests();
    std::reverse(reversed.begin(), reversed.end());
    std::vector<std::string> rotated = demoManifests();
    std::rotate(rotated.begin(), rotated.begin() + 2, rotated.end());

    for (const auto &order : {reversed, rotated})
        for (int shards : {2, 8})
            compareSerialVsSharded(order, shards);
}

TEST(ShardedMasterTest, FailedRequestsCommitInOrder)
{
    // An undeployed app mid-stream fails during planning but still
    // occupies its commit slot, so successors publish normally.
    Cluster cluster(smallConfig());
    deployDemo(cluster);
    metrics::Registry registry;
    ShardedMaster master(&cluster, {}, 4, 2, &registry);

    std::uint64_t ok1 =
        master.apply("app=Cache anomaly=true period_ms=30 budget_mb=64");
    std::uint64_t bad = master.apply("app=NotDeployed period_ms=30");
    std::uint64_t ok2 =
        master.apply("app=Search2 anomaly=true period_ms=30 budget_mb=64");
    master.reconcile();

    EXPECT_EQ(master.request(ok1)->phase, RequestPhase::kCompleted);
    EXPECT_EQ(master.request(bad)->phase, RequestPhase::kFailed);
    EXPECT_EQ(master.request(ok2)->phase, RequestPhase::kCompleted);
    EXPECT_EQ(master.report(bad), nullptr);
    ASSERT_NE(master.report(ok2), nullptr);
    EXPECT_GT(master.report(ok2)->total_trace_bytes, 0u);
    EXPECT_EQ(master.coverage().totalRequests(), 2u);
}

TEST(ShardedMasterTest, RepeatedReconcileIsIdempotent)
{
    Cluster cluster(smallConfig());
    deployDemo(cluster);
    metrics::Registry registry;
    ShardedMaster master(&cluster, {}, 2, 2, &registry);
    std::uint64_t id =
        master.apply("app=Cache anomaly=true period_ms=30 budget_mb=64");
    master.reconcile();
    std::uint64_t sessions = master.sessionsRun();
    master.reconcile();  // nothing pending: no new work
    EXPECT_EQ(master.sessionsRun(), sessions);
    EXPECT_EQ(master.odps().queryRequest(id).size(), 3u);
}

TEST(ShardedMasterTest, FootprintSumsPerShardAndPoolThreads)
{
    Cluster cluster(smallConfig());
    deployDemo(cluster);
    metrics::Registry registry;
    ShardedMaster m1(&cluster, {}, 1, 2, &registry);
    ShardedMaster m2(&cluster, {}, 2, 2, &registry);
    ShardedMaster m8(&cluster, {}, 8, 2, &registry);

    auto f1 = m1.managementFootprint();
    auto f2 = m2.managementFootprint();
    auto f8 = m8.managementFootprint();
    // Each shard adds a fixed overhead on top of the same API-server
    // state, so more shards never shrink the total.
    EXPECT_GT(f8.memory_mb, f2.memory_mb);
    EXPECT_GT(f2.memory_mb, f1.memory_mb);
    // Still per-mille territory on a small cluster.
    EXPECT_LT(f8.cores, 0.01);
}

TEST(ShardedMasterTest, FootprintScalesWithThreads)
{
    // The footprint must depend on the pool width.
    Cluster cluster(smallConfig());
    metrics::Registry registry;
    ShardedMaster narrow(&cluster, {}, 2, 2, &registry);
    ShardedMaster wide(&cluster, {}, 2, 16, &registry);
    EXPECT_GT(wide.managementFootprint().memory_mb,
              narrow.managementFootprint().memory_mb);
    EXPECT_GT(wide.managementFootprint().cores,
              narrow.managementFootprint().cores);
}

TEST(ShardedMasterStress, ConcurrentSubmitsThenReconcile)
{
    // TSan target: racing API-server writes against the global id
    // stream + shard maps, then a multi-shard reconcile publishing
    // through the commit log.
    ClusterConfig cc;
    cc.num_nodes = 2;
    cc.cores_per_node = 2;
    cc.seed = 11;
    Cluster cluster(cc);
    cluster.deploy("Cache", 2);

    metrics::Registry registry;
    ShardedMaster master(&cluster, {}, 4, 2, &registry);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 3;
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        submitters.emplace_back([&master]() {
            for (int i = 0; i < kPerThread; ++i)
                master.apply(
                    "app=Cache anomaly=true period_ms=20 budget_mb=32");
        });
    for (std::thread &t : submitters)
        t.join();

    master.reconcile();

    constexpr std::uint64_t kTotal = kThreads * kPerThread;
    for (std::uint64_t id = 1; id <= kTotal; ++id) {
        ASSERT_NE(master.request(id), nullptr);
        EXPECT_EQ(master.request(id)->phase, RequestPhase::kCompleted);
        ASSERT_NE(master.report(id), nullptr);
    }
    EXPECT_EQ(master.sessionsRun(), kTotal * 2);  // two replicas each
    EXPECT_EQ(master.coverage().totalRequests(), kTotal);
    EXPECT_EQ(master.coverage().totalSessions(), kTotal * 2);
    EXPECT_EQ(registry.counter("api.submits").value(), kTotal);
    EXPECT_EQ(registry.counter("odps.inserts").value(), kTotal * 2);
    EXPECT_EQ(registry.counter("oss.puts").value(),
              master.oss().objectCount());
    EXPECT_EQ(registry.counter("oss.bytes").value(),
              master.oss().totalBytes());
    EXPECT_EQ(registry.histogram("reconcile.latency_us").count(),
              kTotal);
}

TEST(ShardedMasterStress, LaneSessionsFanOutIdentically)
{
    // TSan target: one anomaly request's three sessions (one per
    // Cache replica) run concurrently inside its lane — on a pool of
    // its own with one shard, on the shared pool with four — and must
    // publish exactly what the inline serial reference does.
    const std::vector<std::string> one = {
        "app=Cache anomaly=true period_ms=20 budget_mb=64"};
    std::int64_t tasks = 0;
    // One shard runs its lane inline, so every pool task is a session.
    compareSerialVsSharded(one, /*shards=*/1, /*threads=*/4, &tasks);
    EXPECT_GE(tasks, 3);
    // Four lanes as pool tasks, plus the busy lane's three sessions.
    compareSerialVsSharded(one, /*shards=*/4, /*threads=*/0, &tasks);
    EXPECT_GE(tasks, 4 + 3);
}

/** ControlJournal fake that records the ids onPublish sees, in call
 *  order. It takes no lock of its own: the commit log serializes
 *  onPublish, and TSan flags it if a lane ever calls it directly. */
class PublishRecorder : public ControlJournal
{
  public:
    void onAdmit(const TraceRequest &) override {}
    void onPlanned(std::uint64_t, RequestPhase) override {}
    void
    onPublish(std::uint64_t id, const PublishEffects &) override
    {
        published.push_back(id);
    }

    std::vector<std::uint64_t> published;
};

TEST(ShardedMasterStress, JournaledPublishesCommitInOrderWhileRead)
{
    // TSan target: a journaled reconcile on a pool (the recovery
    // matrix runs one thread). The sequenced commit is the only
    // writer of the stores, so readers polling them meanwhile see
    // them only grow, the journal sees publishes in id order, and the
    // result equals the unjournaled inline serial reference.
    std::vector<std::string> manifests = demoManifests();
    manifests.insert(manifests.begin() + 2, "app=NotDeployed period_ms=20");

    Cluster serial_cluster(smallConfig());
    deployDemo(serial_cluster);
    metrics::Registry serial_registry;
    ShardedMaster serial(&serial_cluster, {}, 1, 1, &serial_registry);

    Cluster cluster(smallConfig());
    deployDemo(cluster);
    metrics::Registry registry;
    ShardedMaster master(&cluster, {}, 4, 4, &registry);
    PublishRecorder journal;
    master.attachJournal(&journal);

    std::vector<std::uint64_t> completed;
    for (const std::string &m : manifests) {
        std::uint64_t id = master.apply(m);
        ASSERT_EQ(serial.apply(m), id);
        if (m.find("NotDeployed") == std::string::npos)
            completed.push_back(id);
    }
    serial.reconcile();

    std::atomic<bool> done{false};
    std::atomic<int> regressions{0};
    std::vector<std::thread> readers;
    readers.reserve(2);
    for (int r = 0; r < 2; ++r)
        readers.emplace_back([&]() {
            std::size_t objects = 0, rows = 0;
            std::uint64_t bytes = 0;
            while (!done.load(std::memory_order_acquire)) {
                std::size_t o = master.oss().objectCount();
                std::uint64_t b = master.oss().totalBytes();
                std::size_t keys = master.oss().listPrefix("traces/").size();
                std::size_t n = master.odps().rowCount();
                if (o < objects || b < bytes || keys < o || n < rows)
                    regressions.fetch_add(1);
                objects = o;
                bytes = b;
                rows = n;
            }
        });

    master.reconcile();
    done.store(true, std::memory_order_release);
    for (std::thread &t : readers)
        t.join();

    EXPECT_EQ(regressions.load(), 0);
    EXPECT_EQ(journal.published, completed);
    for (std::uint64_t id = 1; id <= manifests.size(); ++id) {
        SCOPED_TRACE("request " + std::to_string(id));
        EXPECT_EQ(master.phaseOf(id), serial.phaseOf(id));
        const TraceReport *a = serial.report(id);
        const TraceReport *b = master.report(id);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (a != nullptr)
            expectReportsEqual(*a, *b);
    }
    EXPECT_EQ(master.oss().allObjects(), serial.oss().allObjects());
    EXPECT_EQ(master.oss().totalBytes(), serial.oss().totalBytes());
    EXPECT_EQ(master.odps().allRows(), serial.odps().allRows());
    EXPECT_TRUE(master.coverage() == serial.coverage());
    EXPECT_EQ(registry.counter("oss.puts").value(),
              master.oss().objectCount());
    EXPECT_EQ(registry.counter("odps.inserts").value(),
              master.odps().rowCount());
}

TEST(ShardedMasterStress, PhaseReadersDuringReconcile)
{
    // Regression: request phases used to be written outside shard.mu
    // (by planRequest and by the commit action draining on another
    // shard's thread), so concurrent phase reads were racy. phaseOf()
    // now reads under the shard lock and every transition is applied
    // under it; readers polling throughout a reconcile must observe
    // only forward progress (TSan checks the rest).
    ClusterConfig cc;
    cc.num_nodes = 2;
    cc.cores_per_node = 2;
    cc.seed = 13;
    Cluster cluster(cc);
    cluster.deploy("Cache", 2);

    metrics::Registry registry;
    ShardedMaster master(&cluster, {}, 4, 2, &registry);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(master.apply(
            "app=Cache anomaly=true period_ms=20 budget_mb=32"));

    std::atomic<bool> done{false};
    std::atomic<int> regressions{0};
    std::vector<std::thread> readers;
    readers.reserve(2);
    for (int r = 0; r < 2; ++r)
        readers.emplace_back([&]() {
            std::vector<RequestPhase> last(ids.size(),
                                           RequestPhase::kPending);
            while (!done.load(std::memory_order_acquire)) {
                for (std::size_t i = 0; i < ids.size(); ++i) {
                    RequestPhase p = master.phaseOf(ids[i]);
                    // Pending -> Running -> Completed, never backward.
                    if (static_cast<int>(p) < static_cast<int>(last[i]))
                        regressions.fetch_add(1);
                    last[i] = p;
                }
            }
        });

    master.reconcile();
    done.store(true, std::memory_order_release);
    for (std::thread &t : readers)
        t.join();

    EXPECT_EQ(regressions.load(), 0);
    for (std::uint64_t id : ids) {
        EXPECT_EQ(master.phaseOf(id), RequestPhase::kCompleted);
        EXPECT_NE(master.report(id), nullptr);
    }
}

TEST(ShardedMasterStress, MetricsRegistryHammer)
{
    // TSan target: the lock-striped registry under concurrent lookup
    // and lock-free recording on shared metric objects.
    metrics::Registry registry;
    constexpr int kThreads = 8;
    constexpr int kOps = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&registry, t]() {
            metrics::Scope scope(registry,
                                 "shard." + std::to_string(t % 4));
            for (int i = 0; i < kOps; ++i) {
                registry.counter("total.ops").add();
                scope.counter("ops").add();
                registry.gauge("last.thread").set(t);
                registry.histogram("op.latency_us")
                    .record(static_cast<std::uint64_t>(i % 4096));
            }
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(registry.counter("total.ops").value(),
              static_cast<std::uint64_t>(kThreads) * kOps);
    std::uint64_t scoped = 0;
    for (int s = 0; s < 4; ++s)
        scoped += registry
                      .counter("shard." + std::to_string(s) + ".ops")
                      .value();
    EXPECT_EQ(scoped, static_cast<std::uint64_t>(kThreads) * kOps);
    EXPECT_EQ(registry.histogram("op.latency_us").count(),
              static_cast<std::uint64_t>(kThreads) * kOps);
    EXPECT_EQ(registry.histogram("op.latency_us").max(), 4095u);
}

TEST(CommitLogTest, AppliesOutOfOrderCommitsInSequence)
{
    CommitLog log;
    log.beginEpoch(4);
    std::vector<int> applied;
    EXPECT_EQ(log.commit(2, [&]() { applied.push_back(2); }), 0u);
    EXPECT_EQ(log.commit(1, [&]() { applied.push_back(1); }), 0u);
    EXPECT_FALSE(log.epochComplete());
    // Seq 0 unblocks 0,1,2 in one drain.
    EXPECT_EQ(log.commit(0, [&]() { applied.push_back(0); }), 3u);
    EXPECT_EQ(log.commit(3, [&]() { applied.push_back(3); }), 1u);
    EXPECT_EQ(applied, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_TRUE(log.epochComplete());

    // Epochs reset the sequence window; the id stream is global.
    log.beginEpoch(1);
    EXPECT_EQ(log.commit(0, []() {}), 1u);
    EXPECT_EQ(log.allocateId(), 1u);
    EXPECT_EQ(log.allocateId(), 2u);
}

TEST(RequestPlanSeedTest, PerRequestStreamsAreStable)
{
    // The planning stream is a pure function of (cluster seed, id) —
    // the anchor of the whole sharded-determinism argument.
    EXPECT_EQ(requestPlanSeed(7, 1), requestPlanSeed(7, 1));
    EXPECT_NE(requestPlanSeed(7, 1), requestPlanSeed(7, 2));
    EXPECT_NE(requestPlanSeed(7, 1), requestPlanSeed(8, 1));
}

}  // namespace
}  // namespace exist
