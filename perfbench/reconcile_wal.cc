/**
 * @file
 * The reconcile_wal workload, in process: a controller loop over the
 * public ShardedMaster API, journaled into a durability::Journal, on
 * the demo cluster of bench/reconcile_throughput.cc (10 nodes x 4
 * cores; Search2 x3, Cache x3, Prediction x2).
 *
 * stdin holds the epoch streams, one manifest per line, a blank line
 * between streams. Epochs run until --seconds have passed and at least
 * --min-epochs ran, epoch e replaying stream e (cycling). Each epoch
 * starts a fresh control plane on a new, empty WAL directory under
 * --dir; every round submits four requests, calls reconcile() while a
 * second thread polls report(id) to time each request from submit to
 * readable, then calls maybeSnapshot. After the stream the directory
 * is recovered three times into fresh masters, and deleted.
 *
 * With --trace 1 the journal sits behind a TimingJournal, snapshot and
 * recovery phases are timed apart, and every fourth request of the
 * first epoch is re-driven through planRequest -> Testbed::run ->
 * collectPlan -> capturePublish, each of its sessions also split per
 * module (splitSession).
 *
 * Prints one JSON line of raw samples; run.py turns them into metrics.
 *
 * usage: perfbench_reconcile --dir DIR --seconds S --trace 0|1
 *                            [--min-epochs E] < streams
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/collection.h"
#include "cluster/metrics.h"
#include "cluster/shard/plan.h"
#include "cluster/shard/sharded_master.h"
#include "common.h"
#include "durability/journal.h"
#include "durability/recovery.h"

using namespace exist;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

constexpr int kShards = 4;
constexpr int kThreads = 4;
constexpr std::uint64_t kSnapshotInterval = 8;
constexpr std::size_t kRound = 4;  ///< requests per reconcile() call
constexpr int kSetups = 3;         ///< set-ups per run (median reported)
constexpr int kRecoveries = 3;     ///< recoveries of each epoch's log

struct Options {
    fs::path dir;
    double seconds = 10;
    bool trace = false;
    std::uint64_t min_epochs = 1;
};

std::unique_ptr<Cluster>
makeCluster()
{
    ClusterConfig cc;
    cc.num_nodes = 10;
    cc.cores_per_node = 4;
    cc.seed = 2024;
    auto cluster = std::make_unique<Cluster>(cc);
    cluster->deploy("Search2", 3);
    cluster->deploy("Cache", 3);
    cluster->deploy("Prediction", 2);
    return cluster;
}

durability::ClusterMeta
clusterMeta(const Cluster &cluster)
{
    durability::ClusterMeta meta;
    meta.cluster_seed = cluster.config().seed;
    meta.num_nodes = cluster.config().num_nodes;
    meta.cores_per_node = cluster.config().cores_per_node;
    meta.shards = kShards;
    meta.snapshot_interval = kSnapshotInterval;
    meta.deployments = {{"Search2", 3}, {"Cache", 3}, {"Prediction", 2}};
    return meta;
}

/** One journaled control plane over its own, new WAL directory. */
struct Plane {
    explicit Plane(const fs::path &wal_dir)
        : dir(wal_dir), cluster(makeCluster()),
          journal(durability::DurabilitySpec{wal_dir.string(),
                                             kSnapshotInterval},
                  clusterMeta(*cluster), &registry),
          master(cluster.get(), {}, kShards, kThreads, &registry)
    {
    }

    fs::path dir;
    std::unique_ptr<Cluster> cluster;
    metrics::Registry registry;
    durability::Journal journal;
    ShardedMaster master;
};

/** Polls report(id) on its own thread while the controller reconciles,
 *  recording when each request of the round first became readable. */
class ReadablePoller
{
  public:
    ReadablePoller(const ShardedMaster &master,
                   const std::vector<std::uint64_t> &ids,
                   const std::vector<Clock::time_point> &submitted)
        : master_(master), ids_(ids), submitted_(submitted),
          latency_(ids.size(), -1.0), thread_([this] { poll(); })
    {
    }
    ReadablePoller(const ReadablePoller &) = delete;
    ReadablePoller &operator=(const ReadablePoller &) = delete;
    ~ReadablePoller() { stop(); }

    /** Stop after one last sweep; latencies of requests never readable
     *  stay negative. */
    const std::vector<double> &stop()
    {
        done_.store(true, std::memory_order_release);
        if (thread_.joinable())
            thread_.join();
        return latency_;
    }

  private:
    void poll()
    {
        for (;;) {
            bool last = done_.load(std::memory_order_acquire);
            std::size_t pending = 0;
            for (std::size_t i = 0; i < ids_.size(); ++i) {
                if (latency_[i] >= 0)
                    continue;
                if (master_.report(ids_[i]) != nullptr)
                    latency_[i] = secondsSince(submitted_[i]);
                else
                    ++pending;
            }
            if (last || pending == 0)
                return;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }

    const ShardedMaster &master_;
    const std::vector<std::uint64_t> &ids_;
    const std::vector<Clock::time_point> &submitted_;
    std::vector<double> latency_;
    std::atomic<bool> done_{false};
    std::thread thread_;  // last: starts after the members it reads
};

/** Raw samples run.py aggregates. */
struct RunSamples {
    std::vector<double> setup_s;
    std::vector<double> latency_s;
    std::vector<double> recover_s;
    double stream_s = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t epochs = 0;
    std::uint64_t requests_per_epoch = 0;
    double wall_accuracy = 0;

    // --trace 1 only.
    std::vector<double> wal_s;
    std::vector<double> snapshot_s;
    std::vector<double> snapshot_mb;
    std::vector<double> replay_s;
    std::vector<double> restore_s;
    std::vector<double> plan_s, session_s, collect_s, publish_s;
    std::vector<LayerSample> layers;
    std::uint64_t retransmits = 0, batches_sent = 0;
    std::uint64_t reordered = 0, commits = 0;
    std::uint64_t wal_bytes = 0, wire_bytes = 0, stream_requests = 0;
};

std::uint64_t
largestSnapshotBytes(const fs::path &dir)
{
    std::uint64_t best = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("snap-", 0) == 0 && e.path().extension() == ".img")
            best = std::max<std::uint64_t>(best, e.file_size());
    }
    return best;
}

/** One round's request ids and their submit-to-readable seconds
 *  (negative when a request never became readable). */
struct Round {
    std::vector<std::uint64_t> ids;
    std::vector<double> latency;
};

/** Submit `manifests`, reconcile them while timing each request, and
 *  snapshot when due; returns the seconds maybeSnapshot spent writing
 *  an image, or a negative value when none was due. */
double
runRound(Plane &plane, const std::vector<std::string> &manifests,
         Round &round)
{
    std::vector<Clock::time_point> submitted;
    for (const std::string &m : manifests) {
        submitted.push_back(Clock::now());
        round.ids.push_back(plane.master.apply(m));
    }
    {
        ReadablePoller poller(plane.master, round.ids, submitted);
        plane.master.reconcile();
        round.latency = poller.stop();
    }
    Clock::time_point t0 = Clock::now();
    bool wrote = plane.journal.maybeSnapshot(
        [&plane] { return plane.master.dumpState(); });
    return wrote ? secondsSince(t0) : -1.0;
}

/**
 * Run the stream once on `plane` in rounds, journaling through `hooks`
 * (the plane's journal or a decorator of it). Returns the request ids
 * in submit order; appends latencies, failures and the stream's wall
 * time (snapshots included) to `out`.
 */
std::vector<std::uint64_t>
runStream(Plane &plane, ControlJournal &hooks,
          const std::vector<std::string> &stream, const Options &opt,
          RunSamples &out)
{
    plane.master.attachJournal(&hooks);
    std::vector<std::uint64_t> all_ids;
    Clock::time_point t0 = Clock::now();
    for (std::size_t begin = 0; begin < stream.size(); begin += kRound) {
        std::size_t end = std::min(stream.size(), begin + kRound);
        Round round;
        double snapshot_s = runRound(
            plane,
            std::vector<std::string>(stream.begin() + begin,
                                     stream.begin() + end),
            round);
        if (snapshot_s >= 0 && opt.trace) {
            out.snapshot_s.push_back(snapshot_s);
            out.snapshot_mb.push_back(
                static_cast<double>(largestSnapshotBytes(plane.dir)) /
                1048576.0);
        }
        for (std::size_t i = 0; i < round.ids.size(); ++i) {
            ++out.attempted;
            if (round.latency[i] >= 0 &&
                plane.master.phaseOf(round.ids[i]) ==
                    RequestPhase::kCompleted)
                out.latency_s.push_back(round.latency[i]);
            else
                ++out.failed;
        }
        all_ids.insert(all_ids.end(), round.ids.begin(), round.ids.end());
    }
    out.stream_s += secondsSince(t0);
    plane.master.attachJournal(nullptr);
    return all_ids;
}

/** Recover the plane's directory into fresh masters; every recovered
 *  report must equal the live one. */
void
recoverRepeatedly(const Plane &plane,
                  const std::vector<std::uint64_t> &ids,
                  const Options &opt, RunSamples &out)
{
    for (int k = 0; k < kRecoveries; ++k) {
        Clock::time_point t0 = Clock::now();
        durability::RecoveryResult rec =
            durability::recover(plane.dir.string());
        double replay = secondsSince(t0);
        if (!rec.ok || rec.state.telemetry.pending_requests != 0) {
            std::fprintf(stderr, "recovery failed: %s\n",
                         rec.error.c_str());
            ++out.mismatches;
            continue;
        }
        std::unique_ptr<Cluster> cluster = makeCluster();
        metrics::Registry registry;
        ShardedMaster fresh(cluster.get(), {}, kShards, kThreads,
                            &registry);
        Clock::time_point r0 = Clock::now();
        fresh.restoreForRecovery(rec.state.dump);
        double restore = secondsSince(r0);
        out.recover_s.push_back(replay + restore);
        if (opt.trace) {
            out.replay_s.push_back(replay);
            out.restore_s.push_back(restore);
        }
        for (std::uint64_t id : ids) {
            const TraceReport *live = plane.master.report(id);
            const TraceReport *back = fresh.report(id);
            if (live == nullptr || back == nullptr || !(*live == *back))
                ++out.mismatches;
        }
    }
}

/** A private copy of a stored request, ready to be planned again. */
TraceRequest
requestCopy(const ShardedMaster &master, std::uint64_t id)
{
    TraceRequest req = *master.request(id);
    req.phase = RequestPhase::kPending;
    return req;
}

/** Re-drive every fourth of the plane's requests stage by stage.
 *  Every re-driven report must equal the stored one. */
void
redrive(Plane &plane, const std::vector<std::uint64_t> &ids,
        RunSamples &out)
{
    metrics::Registry scratch;
    for (std::size_t i = 0; i < ids.size(); i += 4) {
        TraceRequest req = requestCopy(plane.master, ids[i]);

        Clock::time_point t0 = Clock::now();
        RequestPlan plan = planRequest(plane.cluster.get(),
                                       plane.master.rco(), req, kThreads);
        out.plan_s.push_back(secondsSince(t0));

        t0 = Clock::now();
        for (SessionPlan &session : plan.sessions)
            session.result = Testbed::run(session.spec);
        out.session_s.push_back(secondsSince(t0));

        t0 = Clock::now();
        collectPlan(plan, plane.cluster->config().seed, &scratch);
        out.collect_s.push_back(secondsSince(t0));

        t0 = Clock::now();
        PublishEffects fx = capturePublish(plan);
        out.publish_s.push_back(secondsSince(t0));

        const TraceReport *stored = plane.master.report(ids[i]);
        if (stored == nullptr || !(fx.report == *stored))
            ++out.mismatches;

        for (const SessionPlan &session : plan.sessions)
            out.layers.push_back(
                splitSession(session.spec, req.app, false));
    }
}

/** Counters of one epoch's registry that explain request tails. */
void
addRegistry(metrics::Registry &reg, std::uint64_t requests, RunSamples &out)
{
    out.retransmits += reg.counter("agent.retransmits").value();
    out.batches_sent += reg.counter("agent.batches_sent").value();
    out.reordered += reg.counter("commitlog.reordered").value();
    out.commits += reg.counter("commitlog.commits").value();
    out.wal_bytes += reg.counter("wal.bytes").value();
    out.wire_bytes += reg.counter("net.bytes_on_wire").value();
    out.stream_requests += requests;
}

/** One field of every layer sample, as a JSON-ready column. */
template <typename T>
std::vector<double>
column(const std::vector<LayerSample> &v, T LayerSample::*field)
{
    std::vector<double> out;
    for (const LayerSample &s : v)
        out.push_back(static_cast<double>(s.*field));
    return out;
}

void
print(const RunSamples &s, bool trace)
{
    JsonLine j;
    j.nums("setup_s", s.setup_s)
        .nums("latency_s", s.latency_s)
        .nums("recover_s", s.recover_s)
        .num("stream_s", s.stream_s)
        .count("attempted", s.attempted)
        .count("failed", s.failed)
        .count("mismatches", s.mismatches)
        .count("epochs", s.epochs)
        .count("requests_per_epoch", s.requests_per_epoch)
        .num("wall_accuracy", s.wall_accuracy)
        .num("peak_rss_mb", peakRssMb());
    if (trace) {
        const auto &L = s.layers;
        j.nums("wal_s", s.wal_s)
            .nums("snapshot_s", s.snapshot_s)
            .nums("snapshot_mb", s.snapshot_mb)
            .nums("replay_s", s.replay_s)
            .nums("restore_s", s.restore_s)
            .nums("plan_s", s.plan_s)
            .nums("session_s", s.session_s)
            .nums("collect_s", s.collect_s)
            .nums("publish_s", s.publish_s)
            .nums("oracle_s", column(L, &LayerSample::oracle_s))
            .nums("exist_s", column(L, &LayerSample::exist_s))
            .nums("truth_s", column(L, &LayerSample::truth_s))
            .nums("decode_s", column(L, &LayerSample::decode_s))
            .nums("truth_branches",
                  column(L, &LayerSample::truth_branches))
            .nums("decoded_branches",
                  column(L, &LayerSample::decoded_branches))
            .nums("context_switches",
                  column(L, &LayerSample::context_switches))
            .nums("trace_bytes", column(L, &LayerSample::trace_bytes))
            .nums("msr_writes", column(L, &LayerSample::msr_writes))
            .nums("segments", column(L, &LayerSample::segments))
            .nums("memo_hits", column(L, &LayerSample::memo_hits))
            .nums("memo_misses", column(L, &LayerSample::memo_misses))
            .nums("slowdown", column(L, &LayerSample::slowdown))
            .nums("coverage", column(L, &LayerSample::coverage))
            .count("retransmits", s.retransmits)
            .count("batches_sent", s.batches_sent)
            .count("reordered", s.reordered)
            .count("commits", s.commits)
            .count("wal_bytes", s.wal_bytes)
            .count("wire_bytes", s.wire_bytes)
            .count("stream_requests", s.stream_requests);
    }
    std::printf("%s\n", j.str().c_str());
}

int
usage()
{
    std::fputs("usage: perfbench_reconcile --dir DIR --seconds S "
               "--trace 0|1 [--min-epochs E] < streams\n",
               stderr);
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    Clock::time_point start = Clock::now();
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string arg = argv[i];
        if (arg == "--dir")
            opt.dir = argv[i + 1];
        else if (arg == "--seconds")
            opt.seconds = std::atof(argv[i + 1]);
        else if (arg == "--trace")
            opt.trace = std::atoi(argv[i + 1]) != 0;
        else if (arg == "--min-epochs")
            opt.min_epochs = std::strtoull(argv[i + 1], nullptr, 10);
        else
            return usage();
    }
    if (opt.dir.empty() || opt.seconds <= 0)
        return usage();
    if (fs::exists(opt.dir)) {
        std::fprintf(stderr, "WAL root %s already exists\n",
                     opt.dir.string().c_str());
        return 2;
    }

    std::vector<std::vector<std::string>> streams(1);
    for (std::string line; std::getline(std::cin, line);) {
        if (!line.empty())
            streams.back().push_back(line);
        else if (!streams.back().empty())
            streams.emplace_back();
    }
    if (streams.back().empty())
        streams.pop_back();
    if (streams.empty())
        return usage();

    RunSamples out;
    out.requests_per_epoch = streams[0].size();
    fs::create_directories(opt.dir);
    int next_dir = 0;
    auto freshDir = [&] {
        return opt.dir / ("plane-" + std::to_string(next_dir++));
    };

    // Set-up, several times: construct a control plane on a new
    // directory and run one full warm-up round untimed: one request of
    // each distinct manifest, in sorted order, so the round is the same
    // for every seed. The first sample also includes reading the input.
    std::vector<std::string> warmup = streams[0];
    std::sort(warmup.begin(), warmup.end());
    warmup.erase(std::unique(warmup.begin(), warmup.end()), warmup.end());
    for (int k = 0; k < kSetups; ++k) {
        Clock::time_point t0 = k == 0 ? start : Clock::now();
        fs::path dir = freshDir();
        {
            Plane plane(dir);
            plane.master.attachJournal(&plane.journal);
            Round round;
            runRound(plane, warmup, round);
            out.setup_s.push_back(secondsSince(t0));
        }
        fs::remove_all(dir);
    }

    // Timed epochs, one control plane at a time.
    Clock::time_point window = Clock::now();
    while (out.epochs < opt.min_epochs ||
           secondsSince(window) < opt.seconds) {
        const std::vector<std::string> &stream =
            streams[out.epochs % streams.size()];
        auto plane = std::make_unique<Plane>(freshDir());
        std::vector<std::uint64_t> ids;
        std::uint64_t attempted0 = out.attempted;
        if (opt.trace) {
            TimingJournal timing(plane->journal);
            ids = runStream(*plane, timing, stream, opt, out);
            for (const auto &[id, s] : timing.perRequest())
                out.wal_s.push_back(s);
            addRegistry(plane->registry, ids.size(), out);
        } else {
            ids = runStream(*plane, plane->journal, stream, opt, out);
        }
        // A degraded stream delivered only its summary.
        std::uint64_t degraded =
            plane->registry.counter("net.streams_degraded").value();
        out.failed += std::min(degraded, out.attempted - attempted0);
        recoverRepeatedly(*plane, ids, opt, out);

        // The first epoch's stream depends on the seed alone, so what is
        // measured on it repeats exactly per seed.
        if (out.epochs == 0) {
            double accuracy = 0;
            for (std::uint64_t id : ids) {
                const TraceReport *r = plane->master.report(id);
                accuracy += r != nullptr ? r->merged_accuracy : 0.0;
            }
            out.wall_accuracy = accuracy / static_cast<double>(ids.size());
            if (opt.trace)
                redrive(*plane, ids, out);
        }
        ++out.epochs;
        fs::path done = plane->dir;
        plane.reset();
        fs::remove_all(done);
    }
    fs::remove_all(opt.dir);

    print(out, opt.trace);
    return 0;
}
