#include "cluster/shard/sharded_master.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "analysis/testbed.h"
#include "cluster/collection.h"
#include "cluster/control_journal.h"
#include "obs/trace_plane.h"
#include "runtime/thread_pool.h"
#include "util/logging.h"

namespace exist {

ShardedMaster::ShardedMaster(Cluster *cluster, RcoConfig rco_cfg,
                             int shards, int threads,
                             metrics::Registry *metrics)
    : cluster_(cluster), rco_(rco_cfg), threads_(threads),
      metrics_(metrics != nullptr ? metrics : &metrics::Registry::global())
{
    if (shards <= 0)
        shards = std::min(ThreadPool::defaultThreads(), 8);
    shards_.reserve(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    metrics_->gauge("shards").set(shards);
}

std::uint64_t
ShardedMaster::submit(TraceRequest req)
{
    req.id = log_.allocateId();
    req.phase = RequestPhase::kPending;
    std::uint64_t id = req.id;
    EXIST_SPAN("reconcile.admit", id);
    // WAL-before-state: the admission is durable before the shard map
    // reflects it. Admits from different submitters may interleave in
    // the log; replay keys them by id, so the order is immaterial.
    if (journal_ != nullptr)
        journal_->onAdmit(req);
    Shard &shard = shardFor(id);
    {
        MutexLock lk(shard.mu);
        shard.requests.emplace(id, std::move(req));
    }
    metrics_->counter("api.submits").add();
    return id;
}

std::uint64_t
ShardedMaster::apply(const std::string &manifest)
{
    TraceRequest req;
    std::string error;
    if (!TraceRequest::parse(manifest, &req, &error))
        EXIST_FATAL("apply: %s", error.c_str());
    return submit(std::move(req));
}

const TraceRequest *
ShardedMaster::request(std::uint64_t id) const
{
    Shard &shard = shardFor(id);
    MutexLock lk(shard.mu);
    auto it = shard.requests.find(id);
    return it == shard.requests.end() ? nullptr : &it->second;
}

RequestPhase
ShardedMaster::phaseOf(std::uint64_t id) const
{
    Shard &shard = shardFor(id);
    MutexLock lk(shard.mu);
    auto it = shard.requests.find(id);
    EXIST_ASSERT(it != shard.requests.end(),
                 "phaseOf unknown request %llu", (unsigned long long)id);
    return it->second.phase;
}

const TraceReport *
ShardedMaster::report(std::uint64_t id) const
{
    Shard &shard = shardFor(id);
    MutexLock lk(shard.mu);
    auto it = shard.reports.find(id);
    return it == shard.reports.end() ? nullptr : &it->second;
}

void
ShardedMaster::reconcile()
{
    // Snapshot the pending ids per shard and rank every pending id in
    // global id order — the rank is its commit sequence, so the
    // sequenced tail of publishing runs in request order whatever the
    // lane interleaving.
    std::size_t nshards = shards_.size();
    std::vector<std::vector<std::uint64_t>> pending(nshards);
    std::vector<std::uint64_t> all;
    for (std::size_t s = 0; s < nshards; ++s) {
        Shard &shard = *shards_[s];
        MutexLock lk(shard.mu);
        for (auto &[id, req] : shard.requests)
            if (req.phase == RequestPhase::kPending) {
                pending[s].push_back(id);
                all.push_back(id);
            }
    }
    std::sort(all.begin(), all.end());
    std::map<std::uint64_t, std::uint64_t> seq_of;
    for (std::size_t i = 0; i < all.size(); ++i)
        seq_of[all[i]] = i;

    log_.beginEpoch(all.size());

    // One pool runs the lanes, and each lane fans its request's
    // sessions out onto the same pool (parallelFor helps while it
    // waits, so nesting cannot starve it). threads == 1 keeps
    // everything inline on this thread, which is what lets an
    // in-process crash test unwind CrashInjected through reconcile().
    std::unique_ptr<ThreadPool> owned;
    ThreadPool *pool = nullptr;
    if (threads_ > 1) {
        owned = std::make_unique<ThreadPool>(threads_);
        pool = owned.get();
    } else if (threads_ <= 0) {
        pool = &ThreadPool::shared();
    }
    auto runShard = [&](std::size_t s) {
        reconcileShard(s, pending[s], seq_of, pool);
    };
    if (pool == nullptr) {
        for (std::size_t s = 0; s < nshards; ++s)
            runShard(s);
    } else {
        std::uint64_t tasks0 = pool->tasksRun();
        std::uint64_t steals0 = pool->steals();
        pool->parallelFor(0, nshards, runShard);
        metrics_->gauge("pool.tasks_run")
            .add(static_cast<std::int64_t>(pool->tasksRun() - tasks0));
        metrics_->gauge("pool.steals")
            .add(static_cast<std::int64_t>(pool->steals() - steals0));
    }

    EXIST_ASSERT(log_.epochComplete(),
                 "reconcile finished with uncommitted requests");
}

void
ShardedMaster::reconcileShard(std::size_t index,
                              const std::vector<std::uint64_t> &ids,
                              const std::map<std::uint64_t,
                                             std::uint64_t> &seq_of,
                              ThreadPool *pool)
{
    metrics::Scope scope(*metrics_, "shard." + std::to_string(index));
    metrics::Counter &reconciles = scope.counter("reconciles");
    metrics::Counter &shard_sessions = scope.counter("sessions");
    metrics::Histogram &latency = metrics_->histogram("reconcile.latency_us");
    metrics::Counter &reordered = metrics_->counter("commitlog.reordered");
    Shard &shard = *shards_[index];

    for (std::uint64_t id : ids) {
        auto t0 = std::chrono::steady_clock::now();
        TraceRequest *req;
        {
            // Pointer into the node-stable map; the map structure is
            // not mutated while reconcile runs.
            MutexLock lk(shard.mu);
            req = &shard.requests.at(id);
        }

        // Plan on the request's private RNG stream, then run its
        // worker-node sessions, fanned out on the lane's pool.
        // Planning does not write the phase itself: every phase
        // transition happens under shard.mu, so concurrent phaseOf()
        // readers never race a bare store.
        RequestPlan plan = [&] {
            EXIST_SPAN("reconcile.plan", id);
            return planRequest(cluster_, rco_, *req, threads_);
        }();
        if (journal_ != nullptr)
            journal_->onPlanned(id, plan.outcome);
        {
            MutexLock lk(shard.mu);
            req->phase = plan.outcome;
        }
        auto runSession = [&](std::size_t i) {
            SessionPlan &session = plan.sessions[i];
            EXIST_SPAN("session.run", obs::corrId(id, session.spec.seed));
            session.result = Testbed::run(session.spec);
            recordSessionMetrics(session.result);
        };
        if (pool == nullptr) {
            for (std::size_t i = 0; i < plan.sessions.size(); ++i)
                runSession(i);
        } else {
            pool->parallelFor(0, plan.sessions.size(), runSession);
        }
        sessions_run_.fetch_add(plan.sessions.size(),
                                std::memory_order_relaxed);
        shard_sessions.add(plan.sessions.size());

        // Collection plane (net=true requests): ship session results
        // over the request's private fabric before publishing. The
        // fabric is seeded by (cluster seed, request id), so the fault
        // pattern — hence the published report — is independent of
        // shard count, thread count and reconcile interleaving, and a
        // request recovered mid-collection repeats it exactly.
        collectPlan(plan, cluster_->config().seed, metrics_);

        // Publishing is pure, so it runs here, in parallel with the
        // other lanes. The sequenced commit action below is the only
        // writer of what it built: it journals the effects first (WAL
        // before state), then moves them into the stores, the ledger
        // and the report map, all in global id order.
        PublishEffects fx;
        bool completed = plan.outcome == RequestPhase::kRunning;
        if (completed) {
            EXIST_SPAN("reconcile.publish", id);
            fx = capturePublish(plan);
        }

        // The sequenced action may drain on whichever shard thread
        // reaches the reorder buffer: link the handoff with a flow.
        std::uint64_t commit_corr = obs::corrId(id, seq_of.at(id));
        obs::flowBegin("commitlog.action", commit_corr);
        std::size_t applied = log_.commit(
            seq_of.at(id), [this, &shard, req, completed, commit_corr,
                            fx = std::move(fx)]() mutable {
                EXIST_SPAN("commitlog.action", commit_corr);
                obs::flowEnd("commitlog.action", commit_corr);
                if (!completed)
                    return;  // failed during planning: stays kFailed
                if (journal_ != nullptr)
                    journal_->onPublish(req->id, fx);
                metrics::Counter &puts = metrics_->counter("oss.puts");
                metrics::Counter &bytes = metrics_->counter("oss.bytes");
                metrics::Counter &inserts =
                    metrics_->counter("odps.inserts");
                for (auto &[key, object] : fx.objects) {
                    bytes.add(object.size());
                    oss_.put(key, std::move(object));
                    puts.add();
                }
                for (TraceRow &row : fx.rows) {
                    odps_.insert(std::move(row));
                    inserts.add();
                }
                ledger_.recordRequest(fx.ledger.app, fx.ledger.sessions,
                                      fx.ledger.period,
                                      fx.ledger.trace_bytes);
                {
                    // The phase flip must ride the same lock as the
                    // report registration: this action may run on
                    // whichever shard thread drained the reorder
                    // buffer, racing phaseOf()/report() readers.
                    MutexLock lk(shard.mu);
                    shard.reports.emplace(req->id, std::move(fx.report));
                    req->phase = RequestPhase::kCompleted;
                }
            });
        if (applied == 0)
            reordered.add();
        metrics_->counter("commitlog.commits").add();

        reconciles.add();
        latency.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    }
}

void
ShardedMaster::recordSessionMetrics(const ExperimentResult &result)
{
    // Session-level OTC/UMA telemetry: control-op and register-write
    // pressure is the node-side cost the control plane must watch.
    metrics_->counter("otc.control_ops")
        .add(result.backend_stats.control_ops);
    metrics_->counter("otc.trace_bytes")
        .add(result.backend_stats.trace_real_bytes);
    metrics_->counter("otc.dropped_bytes")
        .add(result.backend_stats.dropped_real_bytes);
    metrics_->counter("uma.msr_writes")
        .add(result.backend_stats.msr_writes);
    // Decode fast-path telemetry (DESIGN.md §11): memo effectiveness
    // and table footprint, summed over the session's decoded buffers.
    // Each counter is added once per session, so all four exist even
    // when nothing was decoded. Telemetry only; never part of any
    // report comparison.
    std::uint64_t hits = 0, misses = 0, fast_bits = 0, bytes = 0;
    for (const auto &[core, dt] : result.decoded) {
        const DecodeCacheStats &cs = dt.cache_stats;
        hits += cs.memo_hits;
        misses += cs.memo_misses;
        fast_bits += cs.memo_fast_bits;
        bytes += cs.memo_bytes + cs.block_cache_bytes;
    }
    metrics_->counter("decode.cache.hits").add(hits);
    metrics_->counter("decode.cache.misses").add(misses);
    metrics_->counter("decode.cache.fast_bits").add(fast_bits);
    metrics_->counter("decode.cache.bytes").add(bytes);
    metrics_->counter("sessions.run").add();
}

ControlStateDump
ShardedMaster::dumpState() const
{
    ControlStateDump dump;
    dump.next_id = log_.lastAllocatedId() + 1;
    for (const auto &sp : shards_) {
        Shard &shard = *sp;
        MutexLock lk(shard.mu);
        for (const auto &[id, req] : shard.requests)
            dump.requests.emplace(id, req);
        for (const auto &[id, report] : shard.reports)
            dump.reports.emplace(id, report);
    }
    dump.ledger = ledger_;
    dump.objects = oss_.allObjects();
    dump.rows = odps_.allRows();
    return dump;
}

void
ShardedMaster::restoreForRecovery(const ControlStateDump &dump)
{
    log_.restoreNextId(dump.next_id);
    for (const auto &[id, req] : dump.requests) {
        Shard &shard = shardFor(id);
        MutexLock lk(shard.mu);
        shard.requests.insert_or_assign(id, req);
    }
    for (const auto &[id, report] : dump.reports) {
        Shard &shard = shardFor(id);
        MutexLock lk(shard.mu);
        shard.reports.insert_or_assign(id, report);
    }
    ledger_ = dump.ledger;
    for (const auto &[key, bytes] : dump.objects)
        oss_.put(key, bytes);
    for (const TraceRow &row : dump.rows)
        odps_.insert(row);
}

ShardedMaster::Footprint
ShardedMaster::managementFootprint() const
{
    // Calibrated to the paper's Fig. 17 measurement: the RCO management
    // pod consumes < 3e-3 cores and ~40 MB on a ten-node cluster, with
    // sub-linear growth toward per-mille overhead at thousand scale.
    // Per-shard footprints summed: each shard carries its slice of the
    // API-server state plus a fixed per-shard overhead (reconcile
    // loop, shard lock). Pool threads are parked outside reconcile,
    // so they cost stack memory and housekeeping, not cores.
    double nodes = cluster_->numNodes();
    auto nshards = static_cast<double>(shards_.size());
    int threads = threads_ > 0 ? threads_ : ThreadPool::defaultThreads();
    Footprint f{0.0, 0.0};
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        f.cores += (0.0008 + 0.0002 * nodes) / nshards;
        f.memory_mb += (36.0 + 0.4 * nodes) / nshards + 0.5;
    }
    f.cores += 5e-6 * threads;
    f.memory_mb += 8.0 * threads;
    return f;
}

}  // namespace exist
