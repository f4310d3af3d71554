/**
 * @file
 * Segmented, checksummed write-ahead log of control-plane mutations
 * (DESIGN.md §12). Record stream, in CommitLog global-id order for
 * everything sequenced (admissions may interleave across shards; they
 * are keyed by id and order-independent):
 *
 *   kMeta         cluster identity: seed, topology, shard count,
 *                 deployments — everything recovery needs to rebuild
 *                 the Cluster and verify determinism
 *   kAdmit        request admission: id + canonical manifest
 *   kPlan         planning finished: id, the private plan seed
 *                 splitmix64(cluster seed, id) (verified on replay —
 *                 a mismatch means the recovering binary would plan
 *                 differently, which must fail loudly, not diverge),
 *                 and the phase outcome
 *   kPublish      physical redo of one publish: the full report, OSS
 *                 objects, ODPS rows and coverage-ledger delta, so a
 *                 completed request is never re-run after recovery
 *
 * Decisions and results only: nothing of a request's collection run
 * is logged, so a request that crashed before its publish is
 * re-planned and collected again from scratch.
 *
 * On-disk format (all integers little-endian / LEB128 via net/wire.h):
 *
 *   segment file  wal-<%016llx start_lsn>.seg
 *     header      u32 magic "EXWL" | u8 version (2) | u64 start_lsn
 *     record*     u32 payload_len | u64 checksum64(payload) | payload
 *     payload     u8 type | varint lsn | type-specific body
 *
 * Version 1 checked records with FNV-1a; no reader for it remains.
 * Wal::append serializes a record once: encodeRecord writes the
 * payload in place behind the 12-byte record header, whose length and
 * checksum are patched afterwards.
 *
 * LSNs start at 1 and are contiguous across segments; a segment's
 * name/header carry the LSN of its first record. Appends fflush()
 * before returning — the crash model is process death (std::_Exit in
 * the crash harness), which loses user-space buffers but not data the
 * kernel accepted — so every acknowledged append survives the crash.
 *
 * Replay rules (the loud-failure contract the corruption fuzz pins):
 *   - a whole 13-byte header with the WAL magic and another version
 *     was written by a binary of another format -> hard error naming
 *     the segment and both versions, wherever it sits; a header cut
 *     short is the crash-during-rotation layout, a torn tail when
 *     the segment is the last;
 *   - a record that fails framing or checksum *in the last segment*
 *     is a torn tail: replay stops cleanly before it;
 *   - a record whose checksum holds but whose payload does not decode
 *     (an unknown type, such as the retired type 4, or a malformed
 *     body) is never a torn write -> hard error naming its LSN;
 *   - the same mid-log is tolerated only if the next segment resumes
 *     at or below the expected LSN (the crash-then-reopen layout);
 *     otherwise records are missing -> hard error;
 *   - a valid record below the expected LSN is a duplicate (segment
 *     copied or re-delivered) and is skipped; above it -> gap ->
 *     hard error. Recovery therefore never silently diverges.
 */
#ifndef EXIST_DURABILITY_WAL_H
#define EXIST_DURABILITY_WAL_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cluster/control_journal.h"
#include "cluster/metrics.h"
#include "net/wire.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace exist::durability {

inline constexpr std::uint32_t kWalMagic = 0x4C575845;  // "EXWL"
inline constexpr std::uint8_t kWalVersion = 2;
/** payload_len + checksum ahead of every record payload. */
inline constexpr std::size_t kRecordHeaderBytes = 4 + 8;
/** Framing sanity bound; a length prefix past this is corruption. */
inline constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

/** Cap on a logged cores_per_node and shards: the caps of existctl's
 *  --cores and --shards. */
inline constexpr int kMaxMetaCount = 256;

/** Cluster identity, logged first and embedded in every snapshot.
 *  getMeta checks it as the CLI checks its flags: at least one node,
 *  cores_per_node and shards in [1, kMaxMetaCount], at least one
 *  replica per deployment. */
struct ClusterMeta {
    std::uint64_t cluster_seed = 0;
    int num_nodes = 0;
    int cores_per_node = 0;
    /** API-server shard count the log was written under; recovery
     *  rebuilds a ShardedMaster with this many shards. Defaults to
     *  one, what `existctl trace --wal` logs without --shards. */
    int shards = 1;
    std::uint64_t snapshot_interval = 0;
    /** (app, replicas) in deploy order. */
    std::vector<std::pair<std::string, int>> deployments;

    bool operator==(const ClusterMeta &) const = default;
};

/** On-disk type bytes. 4 was the ingest watermark of older versions;
 *  it decodes as nothing, so a log that holds one fails replay. */
enum class RecordType : std::uint8_t {
    kMeta = 1,
    kAdmit = 2,
    kPlan = 3,
    kPublish = 5,
};

const char *recordTypeName(RecordType t);

/** `prefix`, `lsn` as 16 lowercase hex digits, then `suffix`: the file
 *  name of a WAL segment (wal-, .seg) or a snapshot image (snap-,
 *  .img). */
std::string lsnFileName(const char *prefix, std::uint64_t lsn,
                        const char *suffix);
/** Inverse of lsnFileName(); false when `name` is not of that form. */
bool parseLsnFileName(const std::string &name, const char *prefix,
                      const char *suffix, std::uint64_t *lsn);
/** All of `path`'s bytes into `*out`; false on an open or read error. */
bool readFile(const std::string &path, std::vector<std::uint8_t> *out);

/** One WAL record (tagged by `type`; unrelated fields stay empty). */
struct WalRecord {
    std::uint64_t lsn = 0;  ///< assigned by Wal::append
    RecordType type = RecordType::kMeta;

    ClusterMeta meta;             // kMeta
    std::uint64_t request_id = 0; // kAdmit/kPlan/kPublish
    std::string manifest;         // kAdmit
    std::uint64_t plan_seed = 0;  // kPlan
    std::uint8_t outcome = 0;     // kPlan (RequestPhase)
    PublishEffects effects;       // kPublish
};

/** OSS (key, bytes) objects, as publishes and state dumps hold them. */
using StoredObjects =
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>;

/** Shared serializers (the snapshot image reuses them). All readers
 *  go through the latching ByteReader: corrupt input returns false,
 *  never UB. getMeta also returns false for a meta outside
 *  ClusterMeta's ranges, or with a varint that does not fit its int. */
void putMeta(net::ByteWriter &w, const ClusterMeta &m);
bool getMeta(net::ByteReader &r, ClusterMeta *out);
void putReport(net::ByteWriter &w, const TraceReport &report);
bool getReport(net::ByteReader &r, TraceReport *out);
void putRow(net::ByteWriter &w, const TraceRow &row);
bool getRow(net::ByteReader &r, TraceRow *out);
/** Count, then key, length and bytes of each object. */
void putObjects(net::ByteWriter &w, const StoredObjects &objects);
bool getObjects(net::ByteReader &r, StoredObjects *out);
/** An upper bound of putObjects' output less its count: what a
 *  writer reserves so the object bytes land in one allocation. */
std::size_t objectBytes(const StoredObjects &objects);
void putEffects(net::ByteWriter &w, const PublishEffects &fx);
bool getEffects(net::ByteReader &r, PublishEffects *out);

/** Append a record payload (type + lsn + body) to `w`. */
void encodeRecord(net::ByteWriter &w, const WalRecord &rec);
/** Parse a record payload; false on any malformation. */
bool decodeRecord(const std::uint8_t *data, std::size_t size,
                  WalRecord *out);

class Wal
{
  public:
    struct Config {
        std::string dir;
        /** Rotate to a new segment past this many payload bytes. */
        std::size_t segment_bytes = 256 * 1024;
    };

    /**
     * Open `dir` for appending: scans existing segments for the last
     * valid LSN and starts a *new* segment at the next one (never
     * appends after a possibly-torn tail). Creates the directory if
     * missing. Fatal on an unscannable directory.
     */
    explicit Wal(Config cfg, metrics::Registry *registry = nullptr);
    ~Wal();

    Wal(const Wal &) = delete;
    Wal &operator=(const Wal &) = delete;

    /** Append + flush one record; returns its LSN. */
    std::uint64_t append(WalRecord rec) EXIST_EXCLUDES(mu_);

    /** LSN the next append will get. */
    std::uint64_t nextLsn() const EXIST_EXCLUDES(mu_);

    /**
     * Delete segments wholly below `lsn` (their every record is
     * covered by a snapshot barrier <= lsn). The active segment is
     * never deleted. Returns the number of segments removed.
     */
    std::size_t truncateBefore(std::uint64_t lsn) EXIST_EXCLUDES(mu_);

    /** Segment paths in `dir`, sorted by start LSN. */
    static std::vector<std::string> listSegments(const std::string &dir);

    struct ReplayResult {
        bool ok = false;
        std::string error;
        /** Contiguous records with lsn >= from_lsn, in LSN order. */
        std::vector<WalRecord> records;
        std::uint64_t next_lsn = 1;
        std::uint64_t bytes_read = 0;
        bool torn_tail = false;  ///< stopped at a torn final record
    };

    /** Read back the log from `from_lsn` under the rules in the file
     *  comment. Pure read: usable while no Wal has the dir open. */
    static ReplayResult replay(const std::string &dir,
                               std::uint64_t from_lsn);

  private:
    void openSegment() EXIST_REQUIRES(mu_);

    const Config cfg_;
    metrics::Registry *registry_;

    mutable Mutex mu_{lockorder::LockRank::kWal, "durability.wal"};
    std::FILE *file_ EXIST_GUARDED_BY(mu_) = nullptr;
    std::size_t segment_payload_ EXIST_GUARDED_BY(mu_) = 0;
    std::uint64_t next_lsn_ EXIST_GUARDED_BY(mu_) = 1;
    std::uint64_t appends_ EXIST_GUARDED_BY(mu_) = 0;
    std::uint64_t bytes_ EXIST_GUARDED_BY(mu_) = 0;
};

}  // namespace exist::durability

#endif  // EXIST_DURABILITY_WAL_H
