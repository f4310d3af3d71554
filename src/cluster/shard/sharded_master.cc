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
    for (int i = 0; i < shards; ++i) {
        auto shard = std::make_unique<Shard>();
        metrics::Scope scope(*metrics_, "shard." + std::to_string(i));
        shard->reconciles = &scope.counter("reconciles");
        shard->sessions = &scope.counter("sessions");
        shards_.push_back(std::move(shard));
    }
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

/** One request of a reconcile epoch: its commit sequence (its rank in
 *  id order), its plan, and how many of its sessions are unfinished. */
struct ShardedMaster::Pending {
    std::uint64_t seq = 0;
    RequestPlan plan;
    std::atomic<std::size_t> sessions_left{0};
};

void
ShardedMaster::reconcile()
{
    auto start = std::chrono::steady_clock::now();
    // Every pending id in global id order: the rank is its commit
    // sequence.
    std::vector<std::uint64_t> ids;
    for (const auto &sp : shards_) {
        MutexLock lk(sp->mu);
        for (auto &[id, req] : sp->requests)
            if (req.phase == RequestPhase::kPending)
                ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    log_.beginEpoch(ids.size());

    // Plan every request here, in id order, on its private RNG
    // stream. Planning does not write the phase itself: every phase
    // transition happens under the shard lock, so concurrent phaseOf()
    // readers never race a bare store. Each session then decodes on
    // the worker that runs it (planRequest's threads = 1).
    std::vector<Pending> epoch(ids.size());
    std::vector<std::pair<std::size_t, std::size_t>> queue;
    for (std::size_t k = 0; k < ids.size(); ++k) {
        Pending &p = epoch[k];
        Shard &shard = shardFor(ids[k]);
        TraceRequest *req = nullptr;
        {
            // Pointer into the node-stable map; the map structure is
            // not mutated while reconcile runs.
            MutexLock lk(shard.mu);
            req = &shard.requests.at(ids[k]);
        }
        p.seq = k;
        {
            EXIST_SPAN("reconcile.plan", ids[k]);
            p.plan = planRequest(cluster_, rco_, *req, /*threads=*/1);
        }
        if (journal_ != nullptr)
            journal_->onPlanned(ids[k], p.plan.outcome);
        {
            MutexLock lk(shard.mu);
            req->phase = p.plan.outcome;
        }
        p.sessions_left.store(p.plan.sessions.size(),
                              std::memory_order_relaxed);
        for (std::size_t i = 0; i < p.plan.sessions.size(); ++i)
            queue.emplace_back(k, i);
    }
    for (Pending &p : epoch)
        if (p.plan.sessions.empty())
            commitRequest(p, start);

    // One queue of every session in (commit sequence, session index)
    // order, drained through a shared cursor: earlier ids get the
    // workers first, so the commit log rarely has to stage a finished
    // request behind an unfinished predecessor. Whoever finishes a
    // request's last session commits it. threads == 1 drains the
    // queue inline on this thread, which is what lets an in-process
    // crash test unwind CrashInjected through reconcile().
    std::atomic<std::size_t> cursor{0};
    auto drain = [&](std::size_t) {
        for (;;) {
            std::size_t q = cursor.fetch_add(1, std::memory_order_relaxed);
            if (q >= queue.size())
                return;
            Pending &p = epoch[queue[q].first];
            SessionPlan &session = p.plan.sessions[queue[q].second];
            {
                EXIST_SPAN("session.run",
                           obs::corrId(p.plan.req->id, session.spec.seed));
                session.result = Testbed::run(session.spec);
                recordSessionMetrics(session.result);
            }
            // acq_rel: the worker that takes the count to zero sees
            // every other worker's session result.
            if (p.sessions_left.fetch_sub(1, std::memory_order_acq_rel) == 1)
                commitRequest(p, start);
        }
    };
    std::unique_ptr<ThreadPool> owned;
    ThreadPool *pool = nullptr;
    if (threads_ > 1) {
        owned = std::make_unique<ThreadPool>(threads_);
        pool = owned.get();
    } else if (threads_ <= 0) {
        pool = &ThreadPool::shared();
    }
    if (pool == nullptr) {
        drain(0);
    } else {
        std::uint64_t tasks0 = pool->tasksRun();
        std::uint64_t steals0 = pool->steals();
        pool->parallelFor(
            0, std::min<std::size_t>(queue.size(), pool->size()), drain);
        metrics_->gauge("pool.tasks_run")
            .add(static_cast<std::int64_t>(pool->tasksRun() - tasks0));
        metrics_->gauge("pool.steals")
            .add(static_cast<std::int64_t>(pool->steals() - steals0));
    }

    EXIST_ASSERT(log_.epochComplete(),
                 "reconcile finished with uncommitted requests");
}

void
ShardedMaster::commitRequest(Pending &p,
                             std::chrono::steady_clock::time_point start)
{
    RequestPlan &plan = p.plan;
    TraceRequest *req = plan.req;
    std::uint64_t id = req->id;
    Shard &shard = shardFor(id);
    sessions_run_.fetch_add(plan.sessions.size(),
                            std::memory_order_relaxed);
    shard.sessions->add(plan.sessions.size());

    // Collection plane (net=true requests): ship session results
    // over the request's private fabric before publishing. The
    // fabric is seeded by (cluster seed, request id), so the fault
    // pattern — hence the published report — is independent of
    // shard count, thread count and which worker gets here, and a
    // request recovered mid-collection repeats it exactly.
    collectPlan(plan, cluster_->config().seed, metrics_);

    // Publishing is pure, so it runs here, beside other requests'
    // sessions; it takes the raw trace bytes, and the rest of the
    // session results are freed with the sessions. The sequenced
    // commit action below is the only writer of what it built: it
    // journals the effects first (WAL before state), then moves them
    // into the stores, the ledger and the report map, in id order.
    PublishEffects fx;
    bool completed = plan.outcome == RequestPhase::kRunning;
    if (completed) {
        EXIST_SPAN("reconcile.publish", id);
        fx = capturePublish(plan);
    }
    plan.sessions.clear();

    // The sequenced action may drain on whichever worker reaches the
    // reorder buffer: link the handoff with a flow.
    std::uint64_t commit_corr = obs::corrId(id, p.seq);
    obs::flowBegin("commitlog.action", commit_corr);
    std::size_t applied = log_.commit(
        p.seq, [this, &shard, req, completed, commit_corr, start,
                fx = std::move(fx)]() mutable {
            EXIST_SPAN("commitlog.action", commit_corr);
            obs::flowEnd("commitlog.action", commit_corr);
            if (completed) {
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
                // The phase flip must ride the same lock as the report
                // registration: this action may run on whichever
                // worker drained the reorder buffer, racing
                // phaseOf()/report() readers.
                MutexLock lk(shard.mu);
                shard.reports.emplace(req->id, std::move(fx.report));
                req->phase = RequestPhase::kCompleted;
            }
            // Readable now (or final, when planning failed): the wait a
            // caller of reconcile() sees for this request.
            metrics_->histogram("reconcile.latency_us")
                .record(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count()));
        });
    if (applied == 0)
        metrics_->counter("commitlog.reordered").add();
    metrics_->counter("commitlog.commits").add();
    shard.reconciles->add();
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
    // API-server state plus a fixed per-shard overhead (its maps and
    // lock). Pool threads are parked outside reconcile,
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
