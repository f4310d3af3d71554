/**
 * @file
 * Deterministic crash recovery (DESIGN.md §12): load the newest valid
 * snapshot, replay the WAL tail from its barrier, and hand back a
 * state image the control plane resumes from:
 *
 *  - kMeta        sets (or cross-checks) the cluster identity; the
 *                 caller rebuilds the same topology + shard layout
 *  - kAdmit       re-inserts the request as kPending
 *  - kPlan        VERIFIES the logged plan seed against what this
 *                 binary would derive (splitmix64 of cluster seed and
 *                 id) — a mismatch means replanning would diverge, so
 *                 recovery fails loudly — then applies the outcome
 *  - kPublish     applies the physical redo: report, objects, rows,
 *                 ledger delta; the request completes without re-run
 *
 * After replay, requests still kRunning were mid-flight at the crash
 * (running sessions or collecting their results): they reset to
 * kPending and re-plan from their logged seeds, which reproduces the
 * identical plan, sessions and collection fabric — so the recovered
 * run's reports are byte-identical to a crash-free execution.
 *
 * recover() never terminates the process on corrupt input: it returns
 * ok=false with the reason, which the corruption fuzz pins as the
 * loud-failure contract.
 */
#ifndef EXIST_DURABILITY_RECOVERY_H
#define EXIST_DURABILITY_RECOVERY_H

#include <cstdint>
#include <string>

#include "cluster/control_journal.h"
#include "cluster/metrics.h"
#include "durability/snapshot.h"
#include "durability/wal.h"

namespace exist::durability {

/** What a recovered control plane starts from. */
struct RecoveredState {
    ClusterMeta meta;
    ControlStateDump dump;

    struct Telemetry {
        std::uint64_t wal_records = 0;
        std::uint64_t wal_bytes = 0;
        bool snapshot_used = false;
        std::uint64_t snapshot_barrier = 0;
        std::uint64_t replayed_publishes = 0;
        std::uint64_t pending_requests = 0;  ///< re-plan after recovery
    } telemetry;
};

struct RecoveryResult {
    bool ok = false;
    std::string error;
    RecoveredState state;
};

/**
 * Recover the control plane from `dir` (snapshot images + WAL
 * segments). Publishes recovery.* metrics when `registry` is given.
 */
RecoveryResult recover(const std::string &dir,
                       metrics::Registry *registry = nullptr);

}  // namespace exist::durability

#endif  // EXIST_DURABILITY_RECOVERY_H
