#include "durability/recovery.h"

#include <utility>

#include "cluster/crd.h"
#include "cluster/shard/plan.h"
#include "obs/trace_plane.h"
#include "util/logging.h"

namespace exist::durability {

namespace {

std::string
lsnError(std::uint64_t lsn, const std::string &what)
{
    return "wal record lsn " + std::to_string(lsn) + ": " + what;
}

}  // namespace

RecoveryResult
recover(const std::string &dir, metrics::Registry *registry)
{
    RecoveryResult result;
    RecoveredState &st = result.state;
    bool have_meta = false;

    EXIST_SPAN("recovery.load", obs::corrId(dir.size()));
    SnapshotLoad snap = loadNewestSnapshot(dir);
    if (snap.found && !snap.ok) {
        // Snapshots exist but none validates: the WAL below their
        // barriers may have been truncated, so a from-scratch replay
        // could silently miss records. Refuse.
        result.error = "no valid snapshot (" + snap.error + ")";
        return result;
    }
    std::uint64_t from_lsn = 1;
    if (snap.ok) {
        st.meta = snap.state.meta;
        st.dump = std::move(snap.state.dump);
        st.telemetry.snapshot_used = true;
        st.telemetry.snapshot_barrier = snap.state.barrier_lsn;
        from_lsn = snap.state.barrier_lsn;
        have_meta = true;
    }

    EXIST_SPAN("recovery.replay", from_lsn);
    Wal::ReplayResult replay = Wal::replay(dir, from_lsn);
    if (!replay.ok) {
        result.error = replay.error;
        return result;
    }
    st.telemetry.wal_records = replay.records.size();
    st.telemetry.wal_bytes = replay.bytes_read;

    for (WalRecord &rec : replay.records) {
        switch (rec.type) {
          case RecordType::kMeta:
            if (have_meta && !(rec.meta == st.meta)) {
                result.error = lsnError(
                    rec.lsn, "cluster meta mismatch with snapshot");
                return result;
            }
            st.meta = std::move(rec.meta);
            have_meta = true;
            break;

          case RecordType::kAdmit: {
            TraceRequest req;
            std::string bad;
            if (!TraceRequest::parse(rec.manifest, &req, &bad)) {
                result.error = lsnError(rec.lsn, "admit manifest: " + bad);
                return result;
            }
            req.id = rec.request_id;
            req.phase = RequestPhase::kPending;
            if (rec.request_id + 1 > st.dump.next_id)
                st.dump.next_id = rec.request_id + 1;
            st.dump.requests.insert_or_assign(rec.request_id,
                                              std::move(req));
            break;
          }

          case RecordType::kPlan: {
            if (!have_meta) {
                result.error = lsnError(rec.lsn, "plan before meta");
                return result;
            }
            std::uint64_t expected =
                requestPlanSeed(st.meta.cluster_seed, rec.request_id);
            if (rec.plan_seed != expected) {
                // The recovering binary would derive a different plan
                // stream than the one that wrote the log: replanning
                // the pending requests would diverge. Fail loudly.
                result.error = lsnError(
                    rec.lsn,
                    "plan seed mismatch for request " +
                        std::to_string(rec.request_id) +
                        " (logged " + std::to_string(rec.plan_seed) +
                        ", derived " + std::to_string(expected) + ")");
                return result;
            }
            auto it = st.dump.requests.find(rec.request_id);
            if (it == st.dump.requests.end()) {
                result.error =
                    lsnError(rec.lsn, "plan for unknown request " +
                                          std::to_string(rec.request_id));
                return result;
            }
            if (rec.outcome >
                static_cast<std::uint8_t>(RequestPhase::kFailed)) {
                result.error = lsnError(rec.lsn, "bad plan outcome");
                return result;
            }
            it->second.phase = static_cast<RequestPhase>(rec.outcome);
            break;
          }

          case RecordType::kPublish: {
            auto it = st.dump.requests.find(rec.request_id);
            if (it == st.dump.requests.end()) {
                result.error = lsnError(
                    rec.lsn, "publish for unknown request " +
                                 std::to_string(rec.request_id));
                return result;
            }
            it->second.phase = RequestPhase::kCompleted;
            PublishEffects &fx = rec.effects;
            st.dump.reports.insert_or_assign(rec.request_id,
                                             std::move(fx.report));
            st.dump.ledger.recordRequest(fx.ledger.app,
                                         fx.ledger.sessions,
                                         fx.ledger.period,
                                         fx.ledger.trace_bytes);
            for (auto &obj : fx.objects)
                st.dump.objects.push_back(std::move(obj));
            for (auto &row : fx.rows)
                st.dump.rows.push_back(std::move(row));
            st.telemetry.replayed_publishes += 1;
            break;
          }
        }
    }

    if (!have_meta) {
        result.error = "no cluster meta record (empty or foreign dir)";
        return result;
    }

    // Requests still kRunning were mid-flight when the crash hit:
    // reset them to kPending so the next reconcile re-plans them from
    // their (verified) logged seeds — reproducing the identical plan.
    for (auto &[id, req] : st.dump.requests) {
        if (req.phase == RequestPhase::kRunning)
            req.phase = RequestPhase::kPending;
        if (req.phase == RequestPhase::kPending)
            st.telemetry.pending_requests += 1;
    }

    if (registry != nullptr) {
        registry->counter("recovery.runs").add(1);
        registry->counter("recovery.wal_records")
            .add(st.telemetry.wal_records);
        registry->counter("recovery.wal_bytes")
            .add(st.telemetry.wal_bytes);
        registry->counter("recovery.replayed_publishes")
            .add(st.telemetry.replayed_publishes);
        registry->gauge("recovery.snapshot_used")
            .set(st.telemetry.snapshot_used ? 1 : 0);
        registry->gauge("recovery.pending_requests")
            .set(static_cast<std::int64_t>(
                st.telemetry.pending_requests));
    }
    result.ok = true;
    return result;
}

}  // namespace exist::durability
