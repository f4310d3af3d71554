/**
 * @file
 * Durability knobs of a journaled control plane: where the WAL lives
 * and how often to snapshot. They come from `existctl trace --wal
 * DIR --snapshot-interval K` (or a recovered log's meta), never from
 * a TraceRequest or ExperimentSpec. Header-only and dependency-free;
 * journaling is applied around the control-plane mutations by
 * durability/journal.h, so the analysis layer stays independent of
 * the durability plane.
 */
#ifndef EXIST_DURABILITY_SPEC_H
#define EXIST_DURABILITY_SPEC_H

#include <cstdint>
#include <string>

namespace exist::durability {

struct DurabilitySpec {
    /** Directory holding WAL segments + snapshots; empty = durability
     *  off (the historical in-memory-only control plane). */
    std::string wal_dir;
    /** Take a snapshot after this many publishes since the last one
     *  (0 = never snapshot; recovery then replays the whole WAL). */
    std::uint64_t snapshot_interval = 8;

    bool enabled() const { return !wal_dir.empty(); }
};

}  // namespace exist::durability

#endif  // EXIST_DURABILITY_SPEC_H
