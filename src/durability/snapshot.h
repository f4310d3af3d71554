/**
 * @file
 * Versioned, checksummed snapshots of the control plane (DESIGN.md
 * §12): a full ControlStateDump (requests by phase, reports, coverage
 * ledger, store manifests) plus the cluster meta, taken at a quiesced
 * reconcile boundary. The `barrier_lsn` is the WAL position the image
 * covers: recovery loads the newest valid snapshot and replays only
 * records at or past the barrier, so recovery latency is bounded by
 * the snapshot interval, not the experiment length.
 *
 * On-disk format: snap-<%016llx barrier_lsn>.img
 *   u32 magic "EXSN" | u8 version (2) | u64 body_len | u64 fnv1a64(body)
 *   body: meta | barrier_lsn | ControlStateDump
 * Version 1 images also carried ingest cursors; they fail the header
 * check, and with no valid image left recovery refuses the directory.
 *
 * Atomicity: the image is written to `<path>.tmp`, flushed, then
 * renamed — a crash mid-write leaves a `.tmp` recovery ignores. Two
 * most-recent snapshots are retained (pruneSnapshots), and the WAL is
 * truncated only below the *older* kept barrier, so a corrupt newest
 * image still recovers from the previous one plus a longer tail.
 */
#ifndef EXIST_DURABILITY_SNAPSHOT_H
#define EXIST_DURABILITY_SNAPSHOT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/control_journal.h"
#include "durability/wal.h"

namespace exist::durability {

inline constexpr std::uint32_t kSnapMagic = 0x4E535845;  // "EXSN"
inline constexpr std::uint8_t kSnapVersion = 2;

struct SnapshotState {
    ClusterMeta meta;
    std::uint64_t barrier_lsn = 1;
    ControlStateDump dump;
};

/**
 * Write one snapshot image into `dir` (tmp + rename; crosses the
 * mid-snapshot crash point between flush and rename). Returns false
 * with `*error` set on I/O failure.
 */
bool writeSnapshot(const std::string &dir, const SnapshotState &state,
                   std::string *error);

/** (barrier_lsn, path) of every non-tmp image in `dir`, ascending. */
std::vector<std::pair<std::uint64_t, std::string>>
listSnapshots(const std::string &dir);

/** Delete all but the `keep` newest images; returns removed count. */
std::size_t pruneSnapshots(const std::string &dir, std::size_t keep);

struct SnapshotLoad {
    bool found = false;  ///< at least one image existed
    bool ok = false;     ///< `state` holds a validated image
    std::string path;
    std::string error;  ///< why the newest candidate(s) failed
    SnapshotState state;
};

/**
 * Load the newest image that validates end to end (magic, version,
 * checksum, full parse). A corrupt newer image is skipped with its
 * reason recorded — falling back to an older barrier is safe because
 * truncation preserved the WAL tail behind it.
 */
SnapshotLoad loadNewestSnapshot(const std::string &dir);

}  // namespace exist::durability

#endif  // EXIST_DURABILITY_SNAPSHOT_H
