/**
 * @file
 * Collection-plane end-to-end tests: agent -> fabric -> ingest
 * transfers under loss/reorder/duplication, spill-and-summarize
 * degradation on retry exhaustion, and the ISSUE 6 acceptance gates —
 * results and control-plane reports byte-identical to in-process
 * delivery at drop rates {0, 0.01, 0.05} with reordering, for the
 * Testbed path, the serial control-plane reference (one shard, one
 * thread) and the ShardedMaster at several shard counts.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "agent/trace_agent.h"
#include "analysis/testbed.h"
#include "cluster/collection.h"
#include "cluster/ingest.h"
#include "cluster/session_payload.h"
#include "cluster/shard/sharded_master.h"
#include "util/rng.h"

namespace exist {
namespace {

std::vector<std::uint8_t>
randomPayload(std::size_t size, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> payload(size);
    for (std::uint8_t &b : payload)
        b = static_cast<std::uint8_t>(rng.next());
    return payload;
}

struct Harness {
    EventQueue q;
    net::Fabric fabric;
    Ingest ingest;
    agent::TraceAgent agent;

    explicit Harness(const net::NetSpec &spec, std::uint64_t seed = 1)
        : fabric(&q, spec, seed),
          ingest(&q, &fabric, kCollectorNode),
          agent(&q, &fabric, 0, kCollectorNode)
    {
        fabric.attach(kCollectorNode,
                      [this](NodeId src,
                             const std::vector<std::uint8_t> &b) {
                          ingest.onFrame(src, b);
                      });
        fabric.attach(0, [this](NodeId src,
                                const std::vector<std::uint8_t> &b) {
            agent.onFrame(src, b);
        });
    }

    void
    runToQuiescence(double deadline_s = 30.0)
    {
        Cycles deadline = q.now() + secondsToCycles(deadline_s);
        while (!q.empty() && q.now() < deadline)
            q.step();
    }
};

/** A payload of `batches` agent batches, the last one partial. */
std::vector<std::uint8_t>
batchesOfPayload(std::size_t batches, std::uint64_t seed)
{
    return randomPayload(batches * agent::kBatchBytes - 1000, seed);
}

TEST(CollectionE2E, LosslessTransferIsByteIdentical)
{
    net::NetSpec spec;
    spec.enabled = true;
    Harness h(spec, 1);
    std::vector<std::uint8_t> payload = batchesOfPayload(20, 5);
    h.agent.ship(0, payload, "summary text");
    h.runToQuiescence();

    EXPECT_TRUE(h.agent.idle());
    IngestedStream st = h.ingest.take(0, 0);
    EXPECT_TRUE(st.complete);
    EXPECT_FALSE(st.degraded);
    EXPECT_EQ(st.payload, payload);
    EXPECT_EQ(st.summary, "summary text");
    EXPECT_EQ(h.agent.stats().batches_sent, 20u);
    // Nothing was lost, so nothing is sent twice: each batch's RTO
    // runs from when it leaves the NIC, not from when a full first
    // window (16 x 32 KB, ~420 us at 10 Gbps) queued it.
    EXPECT_EQ(h.fabric.stats().frames_dropped, 0u);
    EXPECT_EQ(h.agent.stats().retransmits, 0u);
    EXPECT_EQ(h.ingest.stats().batches_duplicate, 0u);
}

TEST(CollectionE2E, SurvivesLossReorderingAndDuplication)
{
    net::NetSpec spec;
    spec.enabled = true;
    spec.drop_rate = 0.05;
    spec.reorder_rate = 0.2;
    spec.duplicate_rate = 0.05;
    Harness h(spec, 77);
    std::vector<std::uint8_t> payload = batchesOfPayload(40, 6);
    h.agent.ship(0, payload, "s");
    h.runToQuiescence();

    EXPECT_TRUE(h.agent.idle());
    IngestedStream st = h.ingest.take(0, 0);
    ASSERT_TRUE(st.complete);
    EXPECT_FALSE(st.degraded);
    EXPECT_EQ(st.payload, payload);  // reassembled despite the faults

    // The reliability machinery actually exercised.
    agent::AgentStats as = h.agent.stats();
    IngestStats is = h.ingest.stats();
    EXPECT_GT(as.retransmits + is.batches_duplicate, 0u);
    EXPECT_EQ(as.streams_degraded, 0u);
}

TEST(CollectionE2E, DuplicatesAreConsumedOnce)
{
    net::NetSpec spec;
    spec.enabled = true;
    spec.duplicate_rate = 0.5;  // half the frames arrive twice
    Harness h(spec, 3);
    std::vector<std::uint8_t> payload = batchesOfPayload(30, 7);
    h.agent.ship(0, payload, "s");
    h.runToQuiescence();

    IngestedStream st = h.ingest.take(0, 0);
    ASSERT_TRUE(st.complete);
    EXPECT_EQ(st.payload, payload);  // dedup by (node, stream, seq)
    EXPECT_GT(h.ingest.stats().batches_duplicate, 0u);
}

TEST(CollectionE2E, RetryExhaustionDegradesToSummary)
{
    // At 80% frame loss a batch and its ack both get through one try
    // in 25, so some batch exhausts its retries and the stream spills.
    net::NetSpec spec;
    spec.enabled = true;
    spec.drop_rate = 0.8;
    Harness h(spec, 13);
    h.agent.ship(0, batchesOfPayload(50, 9),
                 "the summary that must survive");
    h.runToQuiescence(120.0);

    // Spill-and-summarize: the stream degraded, and the finale, retried
    // without a cap, carried the summary through.
    EXPECT_TRUE(h.agent.idle());
    agent::AgentStats as = h.agent.stats();
    EXPECT_EQ(as.streams_degraded, 1u);
    EXPECT_GT(as.batches_spilled, 0u);
    EXPECT_GE(as.backoffs, static_cast<std::uint64_t>(agent::kMaxRetries));

    IngestedStream st = h.ingest.take(0, 0);
    EXPECT_FALSE(st.complete);
    EXPECT_TRUE(st.degraded);
    EXPECT_EQ(st.summary, "the summary that must survive");
    EXPECT_EQ(st.batches_spilled, as.batches_spilled);
}

TEST(SessionPayloadTest, RoundTripsAllFields)
{
    SessionPayload p;
    p.app = "Cache";
    p.target_cpi = 1.0 / 3.0;  // bit-exactness matters
    p.decoded_branches = 123456;
    p.accuracy_wall = 0.987654321;
    p.decoded_function_insns = {10, 20, 15, 0, 99};
    p.decoded_function_entries = {1, 2, 3};
    p.truth_function_insns = {11, 21, 16, 0, 100};
    p.raw_traces.push_back(CollectedTrace{2, 7, {1, 2, 3, 4}});
    p.raw_traces.push_back(CollectedTrace{3, -1, {}});

    std::vector<std::uint8_t> bytes = p.encode();
    SessionPayload out;
    ASSERT_TRUE(SessionPayload::decode(bytes.data(), bytes.size(),
                                       &out));
    EXPECT_EQ(out.app, p.app);
    EXPECT_EQ(out.target_cpi, p.target_cpi);
    EXPECT_EQ(out.decoded_branches, p.decoded_branches);
    EXPECT_EQ(out.accuracy_wall, p.accuracy_wall);
    EXPECT_EQ(out.decoded_function_insns, p.decoded_function_insns);
    EXPECT_EQ(out.decoded_function_entries,
              p.decoded_function_entries);
    EXPECT_EQ(out.truth_function_insns, p.truth_function_insns);
    ASSERT_EQ(out.raw_traces.size(), 2u);
    EXPECT_EQ(out.raw_traces[0].core, 2);
    EXPECT_EQ(out.raw_traces[0].thread, 7);
    EXPECT_EQ(out.raw_traces[0].bytes,
              (std::vector<std::uint8_t>{1, 2, 3, 4}));
    EXPECT_EQ(out.raw_traces[1].thread, -1);

    SessionPayload summary;
    ASSERT_TRUE(SessionPayload::decodeSummary(p.encodeSummary(),
                                              &summary));
    EXPECT_EQ(summary.app, p.app);
    EXPECT_EQ(summary.target_cpi, p.target_cpi);
    EXPECT_EQ(summary.decoded_branches, p.decoded_branches);
    EXPECT_EQ(summary.accuracy_wall, p.accuracy_wall);
}

/** Compare the collection-borne slice of two results. */
void
expectResultsEqual(const ExperimentResult &a, const ExperimentResult &b,
                   const std::string &app)
{
    EXPECT_EQ(a.decoded_branches, b.decoded_branches);
    EXPECT_EQ(a.accuracy_wall, b.accuracy_wall);
    EXPECT_EQ(a.decoded_function_insns, b.decoded_function_insns);
    EXPECT_EQ(a.decoded_function_entries, b.decoded_function_entries);
    EXPECT_EQ(a.truth_function_insns, b.truth_function_insns);
    EXPECT_EQ(a.at(app).cpi, b.at(app).cpi);
    ASSERT_EQ(a.raw_traces.size(), b.raw_traces.size());
    for (std::size_t i = 0; i < a.raw_traces.size(); ++i) {
        EXPECT_EQ(a.raw_traces[i].core, b.raw_traces[i].core);
        EXPECT_EQ(a.raw_traces[i].bytes, b.raw_traces[i].bytes);
    }
}

ExperimentSpec
sessionSpec()
{
    ExperimentSpec spec;
    spec.node.num_cores = 2;
    spec.workloads.push_back(
        WorkloadSpec{.app = "Cache", .target = true});
    spec.backend = "EXIST";
    spec.session.period = secondsToCycles(0.03);
    spec.decode = true;
    spec.ground_truth = true;
    spec.keep_traces = true;
    spec.seed = 21;
    return spec;
}

/** ISSUE 6 acceptance: a Testbed result routed through the collection
 *  plane at drop rates {0, 0.01, 0.05, 0.10} + reordering is
 *  byte-identical to the in-process result at the same seed. */
TEST(CollectionAcceptance, TestbedResultIdenticalAcrossDropRates)
{
    ExperimentResult baseline = Testbed::run(sessionSpec());
    ASSERT_FALSE(baseline.raw_traces.empty());

    for (double drop : {0.0, 0.01, 0.05, 0.10}) {
        ExperimentResult transported = Testbed::run(sessionSpec());
        net::NetSpec spec;
        spec.enabled = true;
        spec.drop_rate = drop;
        spec.reorder_rate = 0.2;
        CollectionOutcome co = collectSessionResult(
            transported, spec, collectSeed(99, 4), "Cache", nullptr);
        EXPECT_EQ(co.complete, 1u) << "drop=" << drop;
        EXPECT_EQ(co.degraded, 0u) << "drop=" << drop;
        expectResultsEqual(transported, baseline, "Cache");
        EXPECT_GT(co.fabric.frames_sent, 0u);
        // A single session's payload is a handful of frames, so low
        // drop rates may not hit any of them — only require retries
        // when the fabric actually dropped something. (The E2E tests
        // above force losses with big payloads.)
        if (co.fabric.frames_dropped > 0) {
            EXPECT_GT(co.agents.retransmits, 0u) << "drop=" << drop;
        }
    }
}

TEST(CollectionAcceptance, WireLogIdenticalAcrossRunsAtSameSeed)
{
    // Determinism regression at the collection level: two identical
    // runs at one seed produce identical wire-level event logs.
    net::NetSpec spec;
    spec.enabled = true;
    spec.drop_rate = 0.05;
    spec.reorder_rate = 0.2;
    spec.duplicate_rate = 0.02;
    spec.record_wire_log = true;

    std::string logs[2];
    for (int run = 0; run < 2; ++run) {
        ExperimentResult r = Testbed::run(sessionSpec());
        CollectionOutcome co = collectSessionResult(
            r, spec, collectSeed(7, 1), "Cache", nullptr);
        logs[run] = co.wire_log;
    }
    EXPECT_FALSE(logs[0].empty());
    EXPECT_EQ(logs[0], logs[1]);
}

std::vector<std::string>
netManifests(double drop)
{
    std::string net = " net=true reorder=0.2";
    if (drop > 0)
        net += " loss=" + std::to_string(drop);
    return {
        "app=Cache anomaly=true period_ms=40 budget_mb=64" + net,
        "app=Cache period_ms=30 budget_mb=64" + net,
    };
}

ClusterConfig
demoConfig()
{
    ClusterConfig cc;
    cc.num_nodes = 3;
    cc.cores_per_node = 4;
    cc.seed = 7;
    return cc;
}

/** Acceptance: the serial reference's reports with net enabled at
 *  drop rates {0, 0.01, 0.05} + reordering equal the in-process
 *  reports. */
TEST(CollectionAcceptance, MasterReportsIdenticalAcrossDropRates)
{
    // In-process baseline (no net= keys).
    Cluster base_cluster(demoConfig());
    base_cluster.deploy("Cache", 3);
    metrics::Registry base_registry;
    ShardedMaster baseline(&base_cluster, {}, 1, 1, &base_registry);
    std::vector<std::uint64_t> base_ids;
    for (const std::string &m : netManifests(0.0)) {
        std::string stripped = m.substr(0, m.find(" net="));
        base_ids.push_back(baseline.apply(stripped));
    }
    baseline.reconcile();

    for (double drop : {0.0, 0.01, 0.05}) {
        Cluster cluster(demoConfig());
        cluster.deploy("Cache", 3);
        metrics::Registry registry;
        ShardedMaster master(&cluster, {}, 1, 1, &registry);
        std::vector<std::uint64_t> ids;
        for (const std::string &m : netManifests(drop))
            ids.push_back(master.apply(m));
        master.reconcile();

        ASSERT_EQ(ids.size(), base_ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const TraceReport *a = baseline.report(base_ids[i]);
            const TraceReport *b = master.report(ids[i]);
            ASSERT_NE(a, nullptr);
            ASSERT_NE(b, nullptr);
            EXPECT_TRUE(*a == *b) << "drop=" << drop << " req=" << i;
        }
        // The data path landed the same bytes too.
        EXPECT_EQ(baseline.oss().totalBytes(),
                  master.oss().totalBytes())
            << "drop=" << drop;
        EXPECT_EQ(baseline.odps().rowCount(), master.odps().rowCount());
    }
}

/** Sharded reports with net enabled stay bit-identical to the serial
 *  reference's — the fabric is seeded per request, not per shard. */
TEST(CollectionAcceptance, ShardedMasterMatchesSerialWithNet)
{
    std::vector<std::string> manifests = netManifests(0.05);

    Cluster serial_cluster(demoConfig());
    serial_cluster.deploy("Cache", 3);
    metrics::Registry serial_registry;
    ShardedMaster serial(&serial_cluster, {}, 1, 1, &serial_registry);
    std::vector<std::uint64_t> serial_ids;
    for (const std::string &m : manifests)
        serial_ids.push_back(serial.apply(m));
    serial.reconcile();

    for (int shards : {1, 4}) {
        Cluster cluster(demoConfig());
        cluster.deploy("Cache", 3);
        metrics::Registry registry;
        ShardedMaster sharded(&cluster, {}, shards, 0, &registry);
        std::vector<std::uint64_t> ids;
        for (const std::string &m : manifests)
            ids.push_back(sharded.apply(m));
        sharded.reconcile();

        for (std::size_t i = 0; i < ids.size(); ++i) {
            const TraceReport *a = serial.report(serial_ids[i]);
            const TraceReport *b = sharded.report(ids[i]);
            ASSERT_NE(a, nullptr);
            ASSERT_NE(b, nullptr);
            EXPECT_TRUE(*a == *b)
                << "shards=" << shards << " req=" << i;
        }
        // Collection-plane metrics were recorded.
        EXPECT_GT(registry.counter("net.frames_sent").value(), 0u);
        EXPECT_GT(registry.counter("agent.batches_sent").value(), 0u);
    }
}

TEST(Crd, NetKnobsParseAndRoundTrip)
{
    auto parsed = [](const std::string &manifest) {
        TraceRequest req;
        std::string error;
        EXPECT_TRUE(TraceRequest::parse(manifest, &req, &error)) << error;
        return req;
    };
    TraceRequest req = parsed(
        "app=Cache net=true loss=0.05 reorder=0.1 duplicate=0.02 "
        "link_latency_us=80");
    EXPECT_TRUE(req.net);
    EXPECT_DOUBLE_EQ(req.net_loss, 0.05);
    EXPECT_DOUBLE_EQ(req.net_reorder, 0.1);
    EXPECT_DOUBLE_EQ(req.net_duplicate, 0.02);
    EXPECT_DOUBLE_EQ(req.net_link_latency_us, 80);

    net::NetSpec spec = req.netSpec();
    EXPECT_TRUE(spec.enabled);
    EXPECT_DOUBLE_EQ(spec.drop_rate, 0.05);
    EXPECT_DOUBLE_EQ(spec.link_latency_us, 80);

    TraceRequest again = parsed(req.toManifest());
    EXPECT_TRUE(again.netSpec() == spec);

    TraceRequest off = parsed("app=Cache");
    EXPECT_FALSE(off.netSpec().enabled);
}

}  // namespace
}  // namespace exist
