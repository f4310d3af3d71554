/**
 * @file
 * existctl — the operator CLI over the EXIST library (the paper's
 * "easy-to-use interface", §3.1/§4). Commands:
 *
 *   existctl list-apps
 *       Show the workload catalog.
 *
 *   existctl trace <app> [--period-ms N] [--budget-mb N]
 *                        [--backend EXIST|StaSam|eBPF|NHT|Oracle]
 *                        [--cores N] [--clients N] [--report]
 *                        [--threads N] [--shards N]
 *                        [--net] [--loss R] [--reorder R]
 *                        [--duplicate R] [--link-latency-us N]
 *       Run one node-level tracing session against a synthetic
 *       deployment of <app> and print the session statistics; with
 *       --report, also synthesize the human-readable behaviour report
 *       from the session's own decode (the one behind the coverage
 *       and accuracy rows; nothing is decoded twice).
 *       Seven flags are TraceRequest manifest keys (cluster/crd.h) and
 *       go through its one parser: --period-ms (period_ms, default
 *       200), --budget-mb, --net, --loss, --reorder, --duplicate and
 *       --link-latency-us. The request they fill is
 *       the single-node session's configuration, or, with --shards or
 *       --wal, the request the control plane reconciles.
 *       --shards N switches to the sharded control plane: a demo
 *       cluster deploys <app>, a stream of anomaly requests reconciles
 *       across N API-server shards, and the merged reports print.
 *       --net routes the session result's collection-borne slice
 *       (function profiles plus the scalar digest; this path keeps no
 *       raw traces) through the collection plane (node trace agent ->
 *       master ingest over the simulated fabric, cluster/collection.h)
 *       at the given loss/reorder/duplicate rates and link latency.
 *       The report is synthesized node-side, so stdout is
 *       byte-identical to the in-process hand-off whenever the payload
 *       or its summary arrives, even DEGRADED; transport telemetry
 *       goes to stderr.
 *
 *   existctl cluster <manifest>... [--threads N]
 *       Stand up a demo ten-node cluster with the cloud applications
 *       deployed, apply each TraceRequest manifest (e.g.
 *       "app=Search1 anomaly=true period_ms=200"), reconcile at the
 *       default shard count, and print the merged reports.
 *
 *   existctl metrics [<manifest>...] [--shards N] [--threads N]
 *       Dump the process-global control-plane metrics registry as one
 *       JSON object. With manifests, first reconcile them on the demo
 *       cluster through a ShardedMaster recording into that registry,
 *       so the dump shows a live control plane.
 *
 *   existctl trace <app> --wal DIR [--snapshot-interval K]
 *                        [--crash-at P] [--shards N] ...
 *       Durability mode (DESIGN.md §12): the control plane (one
 *       lane without --shards, N with) journals every mutation into
 *       DIR's write-ahead log and snapshots every K publishes.
 *       --crash-at arms a named crash point ("admit", "post-plan",
 *       "pre-store", "mid-snapshot", "post-snapshot", optionally ":n"
 *       for the nth crossing, or "step:N") — the process dies there
 *       with exit code 42, leaving only the WAL.
 *
 *   existctl recover DIR [--threads N]
 *       Recover the control plane from DIR: load the newest valid
 *       snapshot, replay the WAL tail, re-plan and re-run (sessions
 *       and --net collection) whatever was in flight, and print the
 *       reports — byte-identical on stdout to the crash-free trace
 *       run. Recovery telemetry goes to stderr.
 *
 *   existctl top [<manifest>...] [--shards N] [--threads N]
 *                [--iterations N] [--interval-ms M]
 *       Live metrics view: reconcile the optional manifests on the
 *       demo cluster, then render every registry metric as one sorted
 *       table (name, type, value). --iterations N redraws the table N
 *       times at --interval-ms spacing, like a primitive `top`.
 *
 *   existctl dump-flight [<manifest>...] [--shards N] [--threads N]
 *       Reconcile the optional manifests (to generate span traffic),
 *       then dump the self-observability flight recorder — the last
 *       events of every thread — to stdout. This is the same dump a
 *       crash point or fatal error prints as its last words.
 *
 * Any `trace` invocation also takes --self-trace FILE: on exit the
 * internal span rings (DESIGN.md §14) are exported as Chrome
 * trace-event JSON to FILE, loadable in Perfetto / chrome://tracing.
 * stdout is unaffected — the observability plane is write-only.
 *
 * --threads N sets the decode/reconcile parallelism (default: hardware
 * concurrency; --threads 1 is the fully serial path). The output is
 * bit-identical at any thread or shard count — they only change wall
 * time. Every command takes --threads and --shards values as integers
 * >= 0, where 0 keeps the default.
 *
 * Bad input is rejected before anything runs: a malformed manifest, an
 * unknown app or backend, or a flag value that is not all number and
 * in range prints one line on stderr and exits with status 2.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/behavior_report.h"
#include "analysis/report.h"
#include "analysis/testbed.h"
#include "cluster/collection.h"
#include "cluster/metrics.h"
#include "cluster/shard/sharded_master.h"
#include "core/exist_backend.h"
#include "durability/crash_point.h"
#include "durability/journal.h"
#include "durability/recovery.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/trace_plane.h"
#include "util/logging.h"
#include "workload/app_profile.h"

using namespace exist;

namespace {

/** --self-trace destination; written from main() after the command
 *  returns so every instrumented path has finished emitting. */
std::string g_self_trace;

int
usage()
{
    std::fputs(
        "usage: existctl list-apps\n"
        "       existctl trace <app> [--period-ms N] [--budget-mb N]\n"
        "                      [--backend NAME] [--cores N]\n"
        "                      [--clients N] [--report] [--threads N]\n"
        "                      [--shards N] [--net] [--loss R]\n"
        "                      [--reorder R] [--duplicate R]\n"
        "                      [--link-latency-us N]\n"
        "       existctl cluster <manifest>... [--threads N]\n"
        "       existctl metrics [<manifest>...] [--shards N]\n"
        "                      [--threads N]\n"
        "       existctl trace <app> --wal DIR\n"
        "                      [--snapshot-interval K] [--crash-at P]\n"
        "                      [--shards N] ...\n"
        "       existctl recover DIR [--threads N]\n"
        "       existctl top [<manifest>...] [--shards N]\n"
        "                      [--threads N] [--iterations N]\n"
        "                      [--interval-ms M]\n"
        "       existctl dump-flight [<manifest>...] [--shards N]\n"
        "                      [--threads N]\n"
        "       (any trace form also takes --self-trace FILE)\n",
        stderr);
    return 2;
}

int
cmdListApps()
{
    TableWriter table({"Name", "Kind", "Threads", "Priority",
                       "Description"});
    for (const std::string &name : AppCatalog::allNames()) {
        AppProfile p = AppCatalog::find(name);
        table.row({p.name, p.is_service ? "service" : "compute",
                   std::to_string(p.num_threads),
                   TableWriter::num(p.priority, 2), p.description});
    }
    table.print();
    return 0;
}

/** Print one reconciled request deterministically (stdout must stay
 *  byte-comparable across shard/thread counts). */
void
printReports(ShardedMaster &master, const std::vector<std::uint64_t> &ids)
{
    for (std::uint64_t id : ids) {
        const TraceRequest *req = master.request(id);
        std::printf("\nrequest #%llu: %s -> %s\n",
                    (unsigned long long)id, req->toManifest().c_str(),
                    requestPhaseName(req->phase));
        const TraceReport *rep = master.report(id);
        if (rep == nullptr)
            continue;
        std::printf("  period %.0f ms, %zu workers, merged accuracy "
                    "%.1f%%, %.1f MB in OSS\n",
                    cyclesToMs(rep->period), rep->traced_nodes.size(),
                    100 * rep->merged_accuracy,
                    rep->total_trace_bytes / 1048576.0);
    }
    std::printf("\nOSS: %zu objects, ODPS: %zu rows\n",
                master.oss().objectCount(), master.odps().rowCount());
}

/** Reject a bad flag value the way a missing one is: one stderr
 *  line and exit 2, before anything has run. */
[[noreturn]] void
badValue(const std::string &flag, const char *text, const char *want)
{
    std::fprintf(stderr, "existctl: %s wants %s, got '%s'\n",
                 flag.c_str(), want, text);
    std::exit(2);
}

/** All of `text` as an integer >= `min` (0 or 1) that fits an int,
 *  or badValue(). --threads and --shards take min 0, where 0 means
 *  the default. */
int
intArg(const std::string &flag, const char *text, int min)
{
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < min ||
        v > std::numeric_limits<int>::max())
        badValue(flag, text,
                 min == 0 ? "an integer >= 0" : "an integer >= 1");
    return static_cast<int>(v);
}

/** A --crash-at spec (durability/crash_point.h): a named point or
 *  "step", optionally ":k" with an integer k >= 1; else badValue(). */
std::string
crashAtArg(const char *text)
{
    const auto &points = durability::crashpoint::kNames;
    std::string spec = text;
    std::size_t colon = spec.rfind(':');
    std::string name = spec.substr(0, colon);
    if (name != "step" &&
        std::find(points.begin(), points.end(), name) == points.end()) {
        std::string want = "a crash point (";
        for (std::string_view point : points)
            want += std::string(point) + ", ";
        badValue("--crash-at", text,
                 (want + "or step), optionally :k").c_str());
    }
    if (colon != std::string::npos)
        intArg("--crash-at", text + colon + 1, 1);
    return spec;
}

/** A command-line manifest as a TraceRequest, or one stderr line and
 *  exit 2. */
TraceRequest
manifestArg(const char *text)
{
    TraceRequest req;
    std::string error;
    if (!TraceRequest::parse(text, &req, &error)) {
        std::fprintf(stderr, "existctl: bad manifest: %s\n",
                     error.c_str());
        std::exit(2);
    }
    return req;
}

/** The trace flags that are manifest keys. --net takes no value; it
 *  sets its key to true. */
struct RequestFlag {
    const char *flag;
    const char *key;
    bool takes_value;
};
constexpr RequestFlag kRequestFlags[] = {
    {"--period-ms", "period_ms", true},
    {"--budget-mb", "budget_mb", true},
    {"--net", "net", false},
    {"--loss", "loss", true},
    {"--reorder", "reorder", true},
    {"--duplicate", "duplicate", true},
    {"--link-latency-us", "link_latency_us", true},
};

/** `trace --shards N` / `trace --wal DIR`: four copies of `req`
 *  reconciled by the control plane on a demo cluster deploying the
 *  app, journaled into `wal_dir` when one is given. stdout is
 *  byte-identical across shard counts and with or without the
 *  journal; telemetry goes to stderr. */
int
traceCluster(const TraceRequest &req, int shards, int threads,
             const std::string &wal_dir, std::uint64_t snapshot_interval,
             const std::string &crash_at)
{
    // Never hand 0 to ShardedMaster here: it would pick min(hw, 8)
    // lanes, and a log must name the lane count it was written at.
    shards = std::max(1, shards);
    ClusterConfig cc;
    cc.num_nodes = 6;
    cc.cores_per_node = 4;
    Cluster cluster(cc);
    cluster.deploy(req.app, 3);

    std::optional<durability::Journal> journal;
    if (!wal_dir.empty()) {
        durability::ClusterMeta meta;
        meta.cluster_seed = cc.seed;
        meta.num_nodes = cc.num_nodes;
        meta.cores_per_node = cc.cores_per_node;
        meta.shards = shards;
        meta.snapshot_interval = snapshot_interval;
        meta.deployments = {{req.app, 3}};
        journal.emplace(
            durability::DurabilitySpec{wal_dir, snapshot_interval}, meta,
            &metrics::Registry::global());
        note("existctl",
             "journaling into WAL %s (snapshot interval %llu)%s%s",
             wal_dir.c_str(), (unsigned long long)snapshot_interval,
             crash_at.empty() ? "" : ", crash at ", crash_at.c_str());
        if (!crash_at.empty())
            durability::crashpoint::arm(crash_at);
    }

    ShardedMaster master(&cluster, {}, shards, threads);
    if (journal)
        master.attachJournal(&*journal);
    // The shard count goes to stderr with the other telemetry so
    // stdout is byte-comparable across shard counts.
    note("existctl", "tracing '%s' across %d control-plane shard%s...",
         req.app.c_str(), master.shardCount(),
         master.shardCount() == 1 ? "" : "s");

    // Submit everything first (all admissions durable before any
    // reconcile-time crash point), reconcile once, snapshot if due.
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(master.submit(req));
    auto t0 = std::chrono::steady_clock::now();
    master.reconcile();
    double wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    if (journal)
        journal->maybeSnapshot([&master] { return master.dumpState(); });
    printReports(master, ids);

    // Wall-clock telemetry, so stderr.
    metrics::Registry &reg = master.metrics();
    note("existctl",
         "reconciled %zu requests in %.1f ms "
         "(%.1f req/s, p99 %llu us, %llu sessions)",
         ids.size(), wall_s * 1e3, ids.size() / wall_s,
         (unsigned long long)reg.histogram("reconcile.latency_us")
             .percentile(0.99),
         (unsigned long long)master.sessionsRun());
    return 0;
}

/** `recover DIR`: rebuild the control plane the WAL describes and
 *  finish what the crashed run left pending. */
int
cmdRecover(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    std::string dir = argv[0];
    int threads = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            threads = intArg("--threads", argv[++i], 0);
        else
            return usage();
    }

    durability::RecoveryResult rec =
        durability::recover(dir, &metrics::Registry::global());
    if (!rec.ok) {
        logLine(LogLevel::kError, "existctl", "recovery failed: %s",
                rec.error.c_str());
        return 1;
    }
    const durability::RecoveredState &st = rec.state;
    note("existctl",
         "recovered %llu WAL records (%.1f KB)%s, "
         "%llu publishes replayed, %llu requests to re-plan",
         (unsigned long long)st.telemetry.wal_records,
         st.telemetry.wal_bytes / 1024.0,
         st.telemetry.snapshot_used ? " + snapshot" : "",
         (unsigned long long)st.telemetry.replayed_publishes,
         (unsigned long long)st.telemetry.pending_requests);

    ClusterConfig cc;
    cc.num_nodes = st.meta.num_nodes;
    cc.cores_per_node = st.meta.cores_per_node;
    cc.seed = st.meta.cluster_seed;
    Cluster cluster(cc);
    for (const auto &[app, replicas] : st.meta.deployments)
        cluster.deploy(app, replicas);

    durability::DurabilitySpec dspec;
    dspec.wal_dir = dir;
    dspec.snapshot_interval = st.meta.snapshot_interval;
    durability::Journal journal(dspec, st.meta,
                                &metrics::Registry::global());

    std::vector<std::uint64_t> ids;
    for (const auto &[id, req] : st.dump.requests)
        ids.push_back(id);

    // A log that records 0 shards predates the one-lane default and
    // recovers into one lane (0 would pick min(hw, 8) lanes).
    ShardedMaster master(&cluster, {}, std::max(1, st.meta.shards),
                         threads);
    master.restoreForRecovery(st.dump);
    master.attachJournal(&journal);
    master.reconcile();
    journal.maybeSnapshot([&master] { return master.dumpState(); });
    printReports(master, ids);
    return 0;
}

int
cmdTrace(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    // The manifest-backed flags fill this request through the CRD
    // parser; the trace command's own default period is 200 ms.
    TraceRequest req;
    req.app = argv[0];
    req.anomaly = true;
    req.period_override = 200 * kCyclesPerMs;
    std::string backend = "EXIST";
    int cores = 4;
    int clients = 10;
    bool report = false;
    int threads = 0;  // 0 = default pool (hardware concurrency)
    int shards = 0;   // 0 = single-node session (no control plane)
    std::string wal_dir;
    std::uint64_t snapshot_interval = 8;
    std::string crash_at;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        const RequestFlag *rf = std::find_if(
            std::begin(kRequestFlags), std::end(kRequestFlags),
            [&arg](const RequestFlag &f) { return arg == f.flag; });
        if (rf != std::end(kRequestFlags)) {
            std::string error;
            if (!req.set(rf->key, rf->takes_value ? next() : "true",
                         &error)) {
                std::fprintf(stderr, "existctl: %s: %s\n", rf->flag,
                             error.c_str());
                std::exit(2);
            }
        } else if (arg == "--backend")
            backend = next();
        else if (arg == "--cores")
            cores = intArg(arg, next(), 1);
        else if (arg == "--clients")
            clients = intArg(arg, next(), 1);
        else if (arg == "--report")
            report = true;
        else if (arg == "--threads")
            threads = intArg(arg, next(), 0);
        else if (arg == "--shards")
            shards = intArg(arg, next(), 0);
        else if (arg == "--wal")
            wal_dir = next();
        else if (arg == "--snapshot-interval")
            snapshot_interval = intArg(arg, next(), 0);
        else if (arg == "--crash-at")
            crash_at = crashAtArg(next());
        else if (arg == "--self-trace")
            g_self_trace = next();
        else
            return usage();
    }
    std::vector<std::string> apps = AppCatalog::allNames();
    if (std::find(apps.begin(), apps.end(), req.app) == apps.end()) {
        std::fprintf(stderr,
                     "existctl: unknown app '%s' (see existctl "
                     "list-apps)\n",
                     req.app.c_str());
        return 2;
    }
    const char *const backends[] = {"EXIST", "StaSam", "eBPF", "NHT",
                                    "Oracle"};
    if (std::find(std::begin(backends), std::end(backends), backend) ==
        std::end(backends))
        badValue("--backend", backend.c_str(),
                 "EXIST, StaSam, eBPF, NHT or Oracle");
    std::error_code ec;
    if (!wal_dir.empty() && !std::filesystem::is_directory(wal_dir, ec) &&
        !std::filesystem::create_directories(wal_dir, ec))
        badValue("--wal", wal_dir.c_str(), "a directory it can create");
    if (!wal_dir.empty() || shards > 0)
        return traceCluster(req, shards, threads, wal_dir,
                            snapshot_interval, crash_at);

    const std::string &app = req.app;
    ExperimentSpec spec;
    spec.node.num_cores = cores;
    WorkloadSpec w{.app = app, .target = true};
    if (AppCatalog::find(app).is_service)
        w.closed_clients = clients;
    spec.workloads.push_back(std::move(w));
    spec.backend = backend;
    spec.session.period = req.period_override;
    spec.session.budget_mb = req.budget_mb;
    spec.decode = true;
    spec.decode_threads = threads;

    std::printf("tracing '%s' with %s for %.0f ms on a %d-core node "
                "(budget %llu MB)...\n",
                app.c_str(), backend.c_str(),
                cyclesToMs(req.period_override), cores,
                (unsigned long long)req.budget_mb);
    ExperimentResult r = Testbed::run(spec);
    const net::NetSpec net = req.netSpec();
    if (net.enabled) {
        // Route the result through the collection plane. stdout stays
        // byte-comparable with the in-process run (the ctest pins it);
        // the transport telemetry goes to stderr.
        CollectionOutcome co = collectSessionResult(
            r, net, collectSeed(spec.seed, 0), app,
            &metrics::Registry::global());
        note("existctl",
             "collection plane: %llu batches (+%llu "
             "retransmits), %llu acks, %llu dropped frames, "
             "%.1f KB on wire, %s",
             (unsigned long long)co.agents.batches_sent,
             (unsigned long long)co.agents.retransmits,
             (unsigned long long)co.ingest.acks_sent,
             (unsigned long long)co.fabric.frames_dropped,
             co.fabric.bytes_on_wire / 1024.0,
             co.degraded != 0 ? "DEGRADED (summary only)"
                              : "payload intact");
    }
    const AppResult &a = r.at(app);

    TableWriter table({"Metric", "Value"});
    table.row({"instructions retired", std::to_string(a.insns)});
    table.row({"CPI", TableWriter::num(a.cpi, 3)});
    table.row({"requests completed", std::to_string(a.completed)});
    table.row({"trace data (MB)",
               TableWriter::mb(r.backend_stats.trace_real_bytes)});
    table.row({"dropped (MB)",
               TableWriter::mb(r.backend_stats.dropped_real_bytes)});
    table.row({"control operations",
               std::to_string(r.backend_stats.control_ops)});
    table.row({"RTIT MSR writes",
               std::to_string(r.backend_stats.msr_writes)});
    table.row({"decoded branches",
               std::to_string(r.decoded_branches)});
    table.row({"coverage",
               TableWriter::pct(r.accuracy_coverage, 1)});
    table.row({"Wall accuracy",
               TableWriter::pct(r.accuracy_wall, 1)});
    table.print();

    // Synthesized from the session's own decode, the one behind the
    // coverage and Wall accuracy rows above.
    if (report && !r.decoded.empty())
        std::printf("\n%s", BehaviorReport::synthesize(
                                *Testbed::binaryForApp(app), r.decoded,
                                r.switch_log)
                                .c_str());
    return 0;
}

/** Reconcile `requests` on the demo cluster through a ShardedMaster
 *  recording into the global registry, and with `print` print the
 *  merged reports (cluster prints them; metrics/top/dump-flight share
 *  this to put live traffic behind their views). Returns the shard
 *  count actually used. */
int
reconcileDemoRequests(const std::vector<TraceRequest> &requests,
                      int shards, int threads, bool print = false)
{
    ClusterConfig cc;
    cc.num_nodes = 10;
    cc.cores_per_node = 6;
    Cluster cluster(cc);
    cluster.deploy("Search1", 8);
    cluster.deploy("Search2", 6);
    cluster.deploy("Cache", 6);
    cluster.deploy("Pred", 4);
    cluster.deploy("Agent", 10);
    ShardedMaster master(&cluster, {}, shards, threads);
    std::vector<std::uint64_t> ids;
    for (const TraceRequest &req : requests)
        ids.push_back(master.submit(req));
    master.reconcile();
    if (print)
        printReports(master, ids);
    return master.shardCount();
}

int
cmdCluster(int argc, char **argv)
{
    int threads = 0;
    std::vector<TraceRequest> requests;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0) {
            if (i + 1 >= argc) {
                std::fputs("missing value for --threads\n", stderr);
                return 2;
            }
            threads = intArg("--threads", argv[++i], 0);
        } else {
            requests.push_back(manifestArg(argv[i]));
        }
    }
    if (requests.empty())
        return usage();
    reconcileDemoRequests(requests, /*shards=*/0, threads,
                          /*print=*/true);
    return 0;
}

/** The argv of metrics, top and dump-flight: optional manifests plus
 *  --shards N and --threads N, and for top (`redraw`) also
 *  --iterations N and --interval-ms M. */
struct DemoArgs {
    std::vector<TraceRequest> requests;
    int shards = 0;
    int threads = 0;
    int iterations = 1;
    int interval_ms = 500;
};

/** Parse a DemoArgs argv, then reconcile its manifests (if any) on
 *  the demo cluster so the view has live traffic behind it. */
DemoArgs
reconcileDemoArgs(int argc, char **argv, bool redraw)
{
    DemoArgs a;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--threads")
            a.threads = intArg(arg, next(), 0);
        else if (arg == "--shards")
            a.shards = intArg(arg, next(), 0);
        else if (redraw && arg == "--iterations")
            a.iterations = intArg(arg, next(), 1);
        else if (redraw && arg == "--interval-ms")
            a.interval_ms = intArg(arg, next(), 0);
        else
            a.requests.push_back(manifestArg(argv[i]));
    }
    if (!a.requests.empty()) {
        int used = reconcileDemoRequests(a.requests, a.shards, a.threads);
        note("existctl", "reconciled %zu requests on %d shards",
             a.requests.size(), used);
    }
    return a;
}

int
cmdMetrics(int argc, char **argv)
{
    reconcileDemoArgs(argc, argv, /*redraw=*/false);
    std::printf("%s\n", metrics::Registry::global().toJson().c_str());
    return 0;
}

/** `top`: the metrics registry as one sorted table, optionally
 *  redrawn N times — a poor man's `top` over the control plane. */
int
cmdTop(int argc, char **argv)
{
    DemoArgs a = reconcileDemoArgs(argc, argv, /*redraw=*/true);
    metrics::Registry &reg = metrics::Registry::global();
    for (int it = 0; it < a.iterations; ++it) {
        if (it > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(a.interval_ms));
            std::printf("\n");
        }
        TableWriter table({"Metric", "Type", "Value"});
        for (const metrics::Registry::Sample &s : reg.samples())
            table.row({s.name, s.type, s.value});
        table.print();
        // The observability plane's own health, as telemetry.
        note("existctl",
             "obs: %llu span events across %llu threads "
             "(%llu dropped)",
             (unsigned long long)obs::eventsRecorded(),
             (unsigned long long)obs::threadsRegistered(),
             (unsigned long long)obs::threadsDropped());
    }
    return 0;
}

/** `dump-flight`: the flight recorder's last-events view on demand —
 *  the same text a crash point or fatal error prints as last words. */
int
cmdDumpFlight(int argc, char **argv)
{
    reconcileDemoArgs(argc, argv, /*redraw=*/false);
    std::fputs(obs::flightDumpText(64).c_str(), stdout);
    return 0;
}

int
run(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "list-apps")
        return cmdListApps();
    if (cmd == "trace")
        return cmdTrace(argc - 2, argv + 2);
    if (cmd == "cluster")
        return cmdCluster(argc - 2, argv + 2);
    if (cmd == "metrics")
        return cmdMetrics(argc - 2, argv + 2);
    if (cmd == "recover")
        return cmdRecover(argc - 2, argv + 2);
    if (cmd == "top")
        return cmdTop(argc - 2, argv + 2);
    if (cmd == "dump-flight")
        return cmdDumpFlight(argc - 2, argv + 2);
    return usage();
}

}  // namespace

int
main(int argc, char **argv)
{
    obs::setThreadName("main");
    int rc;
    {
        // Scoped so the top-level span closes before export below.
        EXIST_SPAN("existctl.run",
                   obs::corrId(static_cast<std::uint64_t>(argc)));
        rc = run(argc, argv);
    }
    if (!g_self_trace.empty()) {
        // File IO lives here, not in src/obs (raw-file-io rule).
        std::string json = obs::chromeTraceJson();
        std::FILE *f = std::fopen(g_self_trace.c_str(), "wb");
        if (f == nullptr) {
            logLine(LogLevel::kError, "existctl",
                    "cannot write self-trace %s", g_self_trace.c_str());
            return rc != 0 ? rc : 1;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        note("existctl",
             "self-trace: %llu events from %llu threads "
             "(%llu dropped) -> %s (%zu bytes)",
             (unsigned long long)obs::eventsRecorded(),
             (unsigned long long)obs::threadsRegistered(),
             (unsigned long long)obs::threadsDropped(),
             g_self_trace.c_str(), json.size());
    }
    return rc;
}
