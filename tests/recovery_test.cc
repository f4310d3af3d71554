/**
 * @file
 * Durability-plane tests (DESIGN.md §12): WAL framing and replay
 * rules, snapshot round-trips and fallback, and the headline crash
 * matrix — kill the control plane at every named crash point (and at
 * randomized journal-order steps) across shard counts and in-process
 * vs fabric collection, recover from the WAL, and require the
 * recovered artifacts byte-identical to a crash-free run.
 *
 * Crash style here is the in-process one: a test handler throws
 * CrashInjected, the master runs with threads=1 so the exception
 * unwinds to the driver, the "dead" master is discarded, and
 * recovery runs in the same process (the existctl subprocess tests
 * cover the real _Exit(42) death). Registered under the `recovery`
 * ctest label.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/control_journal.h"
#include "cluster/crd.h"
#include "cluster/shard/sharded_master.h"
#include "durability/crash_point.h"
#include "durability/journal.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "durability/spec.h"
#include "durability/wal.h"
#include "util/rng.h"

namespace exist::durability {
namespace {

namespace fs = std::filesystem;

fs::path
freshDir(const std::string &tag)
{
    static int counter = 0;
    fs::path p = fs::temp_directory_path() /
                 ("exist_recovery_" + std::to_string(::getpid()) +
                  "_" + tag + "_" + std::to_string(counter++));
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
}

std::vector<std::uint8_t>
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeFile(const fs::path &p, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

[[noreturn]] void
throwCrash(const std::string &point)
{
    throw crashpoint::CrashInjected{point};
}

/** Arm one crash spec with the throwing handler; restores the
 *  default _Exit handler and disarms on scope exit. */
struct CrashGuard {
    explicit CrashGuard(const std::string &spec)
    {
        prev_ = crashpoint::setHandler(&throwCrash);
        crashpoint::resetSteps();
        crashpoint::arm(spec);
    }
    ~CrashGuard()
    {
        crashpoint::disarm();
        crashpoint::setHandler(prev_);
    }
    crashpoint::Handler prev_;
};

// ---------------------------------------------------------------
// WAL unit tests
// ---------------------------------------------------------------

WalRecord
admitRecord(std::uint64_t id, const std::string &manifest)
{
    WalRecord rec;
    rec.type = RecordType::kAdmit;
    rec.request_id = id;
    rec.manifest = manifest;
    return rec;
}

TEST(WalTest, AppendReplayRoundTripAcrossSegments)
{
    fs::path dir = freshDir("roundtrip");
    {
        // Tiny segments so four records force several rotations.
        Wal wal(Wal::Config{dir.string(), 64});
        WalRecord meta;
        meta.type = RecordType::kMeta;
        meta.meta.cluster_seed = 11;
        meta.meta.num_nodes = 4;
        meta.meta.cores_per_node = 2;
        meta.meta.shards = 2;
        meta.meta.snapshot_interval = 8;
        meta.meta.deployments = {{"Cache", 3}};
        EXPECT_EQ(wal.append(meta), 1u);
        EXPECT_EQ(wal.append(admitRecord(
                      1, "app=Cache anomaly=true budget_mb=64")),
                  2u);
        WalRecord plan;
        plan.type = RecordType::kPlan;
        plan.request_id = 1;
        plan.plan_seed = 0xfeedbeefULL;
        plan.outcome =
            static_cast<std::uint8_t>(RequestPhase::kRunning);
        EXPECT_EQ(wal.append(plan), 3u);
        WalRecord publish;
        publish.type = RecordType::kPublish;
        publish.request_id = 1;
        publish.effects.report.request_id = 1;
        publish.effects.report.app = "Cache";
        publish.effects.objects = {{"traces/1/n2", {0xde, 0xad}}};
        publish.effects.ledger.app = "Cache";
        publish.effects.ledger.trace_bytes = 2;
        EXPECT_EQ(wal.append(publish), 4u);
        EXPECT_EQ(wal.nextLsn(), 5u);
    }
    EXPECT_GT(Wal::listSegments(dir.string()).size(), 1u);

    Wal::ReplayResult rr = Wal::replay(dir.string(), 1);
    ASSERT_TRUE(rr.ok) << rr.error;
    EXPECT_FALSE(rr.torn_tail);
    ASSERT_EQ(rr.records.size(), 4u);
    EXPECT_EQ(rr.next_lsn, 5u);
    EXPECT_EQ(rr.records[0].type, RecordType::kMeta);
    EXPECT_EQ(rr.records[0].meta.cluster_seed, 11u);
    EXPECT_EQ(rr.records[0].meta.deployments.size(), 1u);
    EXPECT_EQ(rr.records[1].manifest,
              "app=Cache anomaly=true budget_mb=64");
    EXPECT_EQ(rr.records[2].plan_seed, 0xfeedbeefULL);
    EXPECT_EQ(rr.records[3].type, RecordType::kPublish);
    EXPECT_EQ(rr.records[3].effects.report.app, "Cache");
    EXPECT_EQ(rr.records[3].effects.objects,
              (std::vector<std::pair<std::string, std::vector<std::uint8_t>>>{
                  {"traces/1/n2", {0xde, 0xad}}}));
    EXPECT_EQ(rr.records[3].effects.ledger.trace_bytes, 2u);

    // Replay from a mid-log LSN returns only the tail.
    Wal::ReplayResult tail = Wal::replay(dir.string(), 3);
    ASSERT_TRUE(tail.ok) << tail.error;
    ASSERT_EQ(tail.records.size(), 2u);
    EXPECT_EQ(tail.records[0].lsn, 3u);
    fs::remove_all(dir);
}

TEST(WalTest, TornTailStopsCleanlyAndReopenResumes)
{
    fs::path dir = freshDir("torn");
    {
        Wal wal(Wal::Config{dir.string()});
        for (std::uint64_t i = 1; i <= 3; ++i)
            wal.append(admitRecord(i, "app=Cache budget_mb=64"));
    }
    // Chop bytes off the final record: a torn tail, not corruption.
    std::vector<std::string> segs = Wal::listSegments(dir.string());
    ASSERT_EQ(segs.size(), 1u);
    fs::resize_file(segs.back(), fs::file_size(segs.back()) - 3);

    Wal::ReplayResult rr = Wal::replay(dir.string(), 1);
    ASSERT_TRUE(rr.ok) << rr.error;
    EXPECT_TRUE(rr.torn_tail);
    ASSERT_EQ(rr.records.size(), 2u);
    EXPECT_EQ(rr.next_lsn, 3u);

    // Reopening never appends after the torn bytes: a new segment
    // starts at the expected LSN, which replay accepts mid-log.
    {
        Wal wal(Wal::Config{dir.string()});
        EXPECT_EQ(wal.nextLsn(), 3u);
        EXPECT_EQ(wal.append(admitRecord(3, "app=Cache budget_mb=64")),
                  3u);
    }
    Wal::ReplayResult rr2 = Wal::replay(dir.string(), 1);
    ASSERT_TRUE(rr2.ok) << rr2.error;
    EXPECT_FALSE(rr2.torn_tail);
    ASSERT_EQ(rr2.records.size(), 3u);
    EXPECT_EQ(rr2.records.back().lsn, 3u);
    fs::remove_all(dir);
}

TEST(WalTest, MissingSegmentIsAHardError)
{
    fs::path dir = freshDir("gap");
    {
        Wal wal(Wal::Config{dir.string(), 64});
        for (std::uint64_t i = 1; i <= 6; ++i)
            wal.append(admitRecord(i, "app=Cache budget_mb=64"));
    }
    std::vector<std::string> segs = Wal::listSegments(dir.string());
    ASSERT_GE(segs.size(), 3u);
    fs::remove(segs[1]);  // records vanish from the middle of the log

    Wal::ReplayResult rr = Wal::replay(dir.string(), 1);
    EXPECT_FALSE(rr.ok);
    EXPECT_FALSE(rr.error.empty());
    fs::remove_all(dir);
}

TEST(WalTest, DuplicateRecordsAreSkipped)
{
    // Splice a later segment's records onto the end of an earlier
    // one: replay sees valid records below the expected LSN (the
    // re-delivered-segment shape) and must skip them, then accept
    // the real successors.
    fs::path dir = freshDir("dup");
    {
        Wal wal(Wal::Config{dir.string(), 64});
        for (std::uint64_t i = 1; i <= 4; ++i)
            wal.append(admitRecord(i, "app=Cache budget_mb=64"));
    }
    std::vector<std::string> segs = Wal::listSegments(dir.string());
    ASSERT_GE(segs.size(), 2u);
    constexpr std::size_t kHeaderBytes = 4 + 1 + 8;
    std::vector<std::uint8_t> first = readFile(segs[0]);
    std::vector<std::uint8_t> second = readFile(segs[1]);
    ASSERT_GT(second.size(), kHeaderBytes);
    first.insert(first.end(), second.begin() + kHeaderBytes,
                 second.end());
    writeFile(segs[0], first);

    Wal::ReplayResult rr = Wal::replay(dir.string(), 1);
    ASSERT_TRUE(rr.ok) << rr.error;
    ASSERT_EQ(rr.records.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(rr.records[i].lsn, i + 1);
    fs::remove_all(dir);
}

TEST(WalTest, RetiredIngestRecordFailsReplayAtItsLsn)
{
    // Older versions logged every consumed agent batch as a type-4
    // record. Its checksum holds, so it is no torn write: replay must
    // fail at it and name its LSN, not stop there and silently drop
    // the publish behind it.
    fs::path dir = freshDir("type4");
    {
        Wal wal(Wal::Config{dir.string()});
        WalRecord meta;
        meta.type = RecordType::kMeta;
        meta.meta.num_nodes = 4;
        meta.meta.cores_per_node = 2;
        meta.meta.shards = 1;
        meta.meta.deployments = {{"Cache", 3}};
        wal.append(meta);
        wal.append(admitRecord(1, "app=Cache budget_mb=64 net=true"));
    }
    // The older body: request, node, stream, seq, total batches, chunk.
    std::vector<std::uint8_t> ingest;
    net::ByteWriter body(&ingest);
    body.putU8(4);
    body.putVarint(3);  // lsn
    body.putVarint(1);
    body.putSVarint(0);
    body.putVarint(0);
    body.putVarint(0);
    body.putVarint(1);
    body.putVarint(2);
    body.putU8(0xab);
    body.putU8(0xcd);
    WalRecord publish;
    publish.type = RecordType::kPublish;
    publish.lsn = 4;
    publish.request_id = 1;
    publish.effects.report.request_id = 1;
    publish.effects.report.app = "Cache";
    std::vector<std::uint8_t> published;
    net::ByteWriter pw(&published);
    encodeRecord(pw, publish);
    std::vector<std::uint8_t> frames;
    net::ByteWriter w(&frames);
    for (const std::vector<std::uint8_t> &payload : {ingest, published}) {
        w.putU32(static_cast<std::uint32_t>(payload.size()));
        w.putU64(net::checksum64(payload.data(), payload.size()));
        w.putBytes(payload.data(), payload.size());
    }
    std::vector<std::string> segs = Wal::listSegments(dir.string());
    ASSERT_EQ(segs.size(), 1u);
    std::vector<std::uint8_t> seg = readFile(segs[0]);
    seg.insert(seg.end(), frames.begin(), frames.end());
    writeFile(segs[0], seg);

    Wal::ReplayResult rr = Wal::replay(dir.string(), 1);
    EXPECT_FALSE(rr.ok);
    EXPECT_NE(rr.error.find("lsn 3 "), std::string::npos) << rr.error;
    RecoveryResult rec = recover(dir.string());
    EXPECT_FALSE(rec.ok);
    EXPECT_NE(rec.error.find("lsn 3 "), std::string::npos) << rec.error;
    fs::remove_all(dir);
}

/** A meta record plus `admits` admissions, in segments of at most
 *  `segment_bytes` payload bytes. */
void
writeSmallLog(const fs::path &dir, int admits, std::size_t segment_bytes)
{
    Wal wal(Wal::Config{dir.string(), segment_bytes});
    WalRecord meta;
    meta.type = RecordType::kMeta;
    meta.meta.num_nodes = 4;
    meta.meta.cores_per_node = 2;
    meta.meta.shards = 1;
    meta.meta.deployments = {{"Cache", 3}};
    wal.append(meta);
    for (int i = 1; i <= admits; ++i)
        wal.append(admitRecord(static_cast<std::uint64_t>(i),
                               "app=Cache budget_mb=64"));
}

/** Set the version byte (after the u32 magic) of segment `path`. */
void
setSegmentVersion(const std::string &path, std::uint8_t version)
{
    std::vector<std::uint8_t> seg = readFile(path);
    ASSERT_GT(seg.size(), 4u);
    ASSERT_EQ(seg[4], kWalVersion);
    seg[4] = version;
    writeFile(path, seg);
}

TEST(WalTest, ForeignVersionLastSegmentFailsReplay)
{
    // A whole header with the WAL magic and version 1 was written by a
    // binary of the older format: its records are real, so replay must
    // name the segment and both versions, not drop it as a torn tail.
    fs::path dir = freshDir("walv1last");
    writeSmallLog(dir, 2, 256 * 1024);
    std::vector<std::string> segs = Wal::listSegments(dir.string());
    ASSERT_EQ(segs.size(), 1u);
    setSegmentVersion(segs[0], 1);

    const std::string want = "wal segment " + segs[0] +
                             " is format version 1; this binary reads "
                             "version " +
                             std::to_string(kWalVersion);
    Wal::ReplayResult rr = Wal::replay(dir.string(), 1);
    EXPECT_FALSE(rr.ok);
    EXPECT_FALSE(rr.torn_tail);
    EXPECT_EQ(rr.error, want);
    RecoveryResult rec = recover(dir.string());
    EXPECT_FALSE(rec.ok);
    EXPECT_EQ(rec.error, want);
    fs::remove_all(dir);
}

TEST(WalTest, ForeignVersionMidLogSegmentFailsReplay)
{
    fs::path dir = freshDir("walv1mid");
    writeSmallLog(dir, 4, 64);
    std::vector<std::string> segs = Wal::listSegments(dir.string());
    ASSERT_GE(segs.size(), 3u);
    setSegmentVersion(segs[1], 1);

    Wal::ReplayResult rr = Wal::replay(dir.string(), 1);
    EXPECT_FALSE(rr.ok);
    EXPECT_NE(rr.error.find("wal segment " + segs[1] +
                            " is format version 1"),
              std::string::npos)
        << rr.error;
    fs::remove_all(dir);
}

TEST(WalTest, ShortHeaderLastSegmentStaysATornTail)
{
    // A crash during rotation can leave fewer than the 13 header
    // bytes: that is a torn tail, whatever the bytes that did land.
    fs::path dir = freshDir("walshorthdr");
    writeSmallLog(dir, 4, 64);
    std::vector<std::string> segs = Wal::listSegments(dir.string());
    ASSERT_GE(segs.size(), 2u);
    setSegmentVersion(segs.back(), 1);
    fs::resize_file(segs.back(), 12);

    Wal::ReplayResult rr = Wal::replay(dir.string(), 1);
    ASSERT_TRUE(rr.ok) << rr.error;
    EXPECT_TRUE(rr.torn_tail);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// Snapshot unit tests
// ---------------------------------------------------------------

SnapshotState
demoSnapshot(std::uint64_t barrier)
{
    SnapshotState st;
    st.meta.cluster_seed = 11;
    st.meta.num_nodes = 4;
    st.meta.cores_per_node = 2;
    st.meta.shards = 2;
    st.meta.snapshot_interval = 4;
    st.meta.deployments = {{"Cache", 3}};
    st.barrier_lsn = barrier;
    st.dump.next_id = 3;
    TraceRequest req;
    req.app = "Cache";
    req.anomaly = true;
    req.budget_mb = 64;
    req.id = 1;
    req.phase = RequestPhase::kCompleted;
    st.dump.requests[1] = req;
    st.dump.objects = {{"traces/1/a", {1, 2, 3}}};
    return st;
}

TEST(SnapshotTest, RoundTripAndPrune)
{
    fs::path dir = freshDir("snap");
    std::string error;
    ASSERT_TRUE(writeSnapshot(dir.string(), demoSnapshot(5), &error))
        << error;
    ASSERT_TRUE(writeSnapshot(dir.string(), demoSnapshot(9), &error))
        << error;
    ASSERT_TRUE(writeSnapshot(dir.string(), demoSnapshot(14), &error))
        << error;

    EXPECT_EQ(pruneSnapshots(dir.string(), 2), 1u);
    auto snaps = listSnapshots(dir.string());
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_EQ(snaps[0].first, 9u);
    EXPECT_EQ(snaps[1].first, 14u);

    SnapshotLoad load = loadNewestSnapshot(dir.string());
    ASSERT_TRUE(load.found);
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.state.barrier_lsn, 14u);
    EXPECT_EQ(load.state.meta, demoSnapshot(14).meta);
    EXPECT_EQ(load.state.dump.requests.size(), 1u);
    EXPECT_EQ(load.state.dump.requests.at(1).phase,
              RequestPhase::kCompleted);
    EXPECT_EQ(load.state.dump.objects, demoSnapshot(14).dump.objects);
    fs::remove_all(dir);
}

TEST(SnapshotTest, CorruptNewestFallsBackToOlder)
{
    fs::path dir = freshDir("snapfall");
    std::string error;
    ASSERT_TRUE(writeSnapshot(dir.string(), demoSnapshot(5), &error));
    ASSERT_TRUE(writeSnapshot(dir.string(), demoSnapshot(9), &error));
    auto snaps = listSnapshots(dir.string());
    ASSERT_EQ(snaps.size(), 2u);

    std::vector<std::uint8_t> img = readFile(snaps[1].second);
    img[img.size() / 2] ^= 0x40;  // body bit flip -> checksum fails
    writeFile(snaps[1].second, img);

    SnapshotLoad load = loadNewestSnapshot(dir.string());
    ASSERT_TRUE(load.found);
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.state.barrier_lsn, 5u);
    EXPECT_FALSE(load.error.empty());  // the skip reason is recorded
    fs::remove_all(dir);
}

/** A directory whose only image carries `version` does not load, and
 *  recovery refuses it. */
void
expectOldImageRefused(std::uint8_t version)
{
    fs::path dir = freshDir("snapv" + std::to_string(version));
    std::string error;
    ASSERT_TRUE(writeSnapshot(dir.string(), demoSnapshot(5), &error))
        << error;
    auto snaps = listSnapshots(dir.string());
    ASSERT_EQ(snaps.size(), 1u);
    std::vector<std::uint8_t> img = readFile(snaps[0].second);
    ASSERT_EQ(img[4], kSnapVersion);  // the byte after the u32 magic
    img[4] = version;
    writeFile(snaps[0].second, img);

    SnapshotLoad load = loadNewestSnapshot(dir.string());
    EXPECT_TRUE(load.found);
    EXPECT_FALSE(load.ok);
    RecoveryResult rec = recover(dir.string());
    EXPECT_FALSE(rec.ok);
    EXPECT_NE(rec.error.find("no valid snapshot"), std::string::npos)
        << rec.error;
    fs::remove_all(dir);
}

TEST(SnapshotTest, VersionOneImageIsRefused)
{
    // Version-1 images also carried ingest cursors, which this format
    // dropped: the header check rejects them.
    expectOldImageRefused(1);
}

TEST(SnapshotTest, VersionTwoImageIsRefused)
{
    // Version-2 images were checked with FNV-1a; no reader is kept.
    expectOldImageRefused(2);
}

TEST(SnapshotTest, ImageWithBadMetaIsInvalid)
{
    // getMeta's range checks hold for images too: a checksum-valid
    // image whose meta has no shards does not load.
    fs::path dir = freshDir("snapmeta");
    SnapshotState st = demoSnapshot(5);
    st.meta.shards = 0;
    std::string error;
    ASSERT_TRUE(writeSnapshot(dir.string(), st, &error)) << error;
    SnapshotLoad load = loadNewestSnapshot(dir.string());
    EXPECT_TRUE(load.found);
    EXPECT_FALSE(load.ok);
    EXPECT_NE(load.error.find("bad meta"), std::string::npos)
        << load.error;
    RecoveryResult rec = recover(dir.string());
    EXPECT_FALSE(rec.ok);
    EXPECT_NE(rec.error.find("no valid snapshot"), std::string::npos)
        << rec.error;
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// CRD + crash-point unit tests
// ---------------------------------------------------------------

TEST(DurabilityCrdTest, WalKeysFailRecoveryAsCorruption)
{
    // The journal comes from existctl's --wal/--snapshot-interval, not
    // the CRD, and decode runs only after the window: a logged manifest
    // naming wal=, snapshot_interval= or streaming= (or anything else
    // parse() rejects) makes recovery fail loudly at that record
    // instead of aborting or dropping the request.
    for (const char *manifest :
         {"app=Cache budget_mb=64 wal=/tmp/exist-wal",
          "app=Cache snapshot_interval=4", "app=Cache streaming=true",
          "app=Cache period_ms=abc"}) {
        fs::path dir = freshDir("badadmit");
        {
            Wal wal(Wal::Config{dir.string()});
            WalRecord meta;
            meta.type = RecordType::kMeta;
            meta.meta.num_nodes = 4;
            meta.meta.cores_per_node = 2;
            meta.meta.shards = 1;
            meta.meta.deployments = {{"Cache", 3}};
            wal.append(meta);
            wal.append(admitRecord(1, manifest));
        }
        RecoveryResult rec = recover(dir.string());
        EXPECT_FALSE(rec.ok) << manifest;
        EXPECT_NE(rec.error.find("lsn 2: admit manifest"),
                  std::string::npos)
            << rec.error;
        fs::remove_all(dir);
    }
}

/** The counts of a forged meta record, each written as a raw varint
 *  (putMeta writes a negative int as a 10-byte one). */
struct RawMeta {
    std::uint64_t num_nodes = 4;
    std::uint64_t cores_per_node = 2;
    std::uint64_t shards = 1;
    std::uint64_t replicas = 3;
};

/** A one-segment log: a checksum-valid meta record with `m`'s counts,
 *  then one admission. */
void
writeForgedMetaLog(const fs::path &dir, const RawMeta &m)
{
    std::vector<std::uint8_t> seg;
    net::ByteWriter w(&seg);
    w.putU32(kWalMagic);
    w.putU8(kWalVersion);
    w.putU64(1);  // start lsn
    auto record = [&w, &seg](auto &&body) {
        std::size_t at = seg.size();
        w.putU32(0);
        w.putU64(0);
        body();
        w.patchU32(at, static_cast<std::uint32_t>(
                           seg.size() - at - kRecordHeaderBytes));
        w.patchU64(at + 4, w.checksumFrom(at + kRecordHeaderBytes));
    };
    record([&] {
        w.putU8(static_cast<std::uint8_t>(RecordType::kMeta));
        w.putVarint(1);   // lsn
        w.putU64(11);     // cluster seed
        w.putVarint(m.num_nodes);
        w.putVarint(m.cores_per_node);
        w.putVarint(m.shards);
        w.putVarint(0);   // snapshot interval
        w.putVarint(1);   // deployments
        w.putString("Cache");
        w.putVarint(m.replicas);
    });
    WalRecord admit = admitRecord(1, "app=Cache budget_mb=64");
    admit.lsn = 2;
    record([&] { encodeRecord(w, admit); });
    writeFile(dir / lsnFileName("wal-", 1, ".seg"), seg);
}

/** Each forged meta fails replay, and so recovery, at its LSN. */
void
expectForgedMetaRefused(std::initializer_list<RawMeta> metas)
{
    for (const RawMeta &m : metas) {
        SCOPED_TRACE("nodes=" + std::to_string(m.num_nodes) +
                     " cores=" + std::to_string(m.cores_per_node) +
                     " shards=" + std::to_string(m.shards) +
                     " replicas=" + std::to_string(m.replicas));
        fs::path dir = freshDir("forgedmeta");
        writeForgedMetaLog(dir, m);
        RecoveryResult rec = recover(dir.string());
        EXPECT_FALSE(rec.ok);
        EXPECT_NE(rec.error.find("wal record lsn 1 "), std::string::npos)
            << rec.error;
        fs::remove_all(dir);
    }
}

TEST(RecoveryTest, ForgedMetaWithoutNodesFailsRecovery)
{
    // Cluster::deploy spreads replicas by a modulo over the node
    // count. The forger itself is sound: in range, the log recovers.
    fs::path dir = freshDir("forgedok");
    writeForgedMetaLog(dir, {});
    RecoveryResult rec = recover(dir.string());
    ASSERT_TRUE(rec.ok) << rec.error;
    EXPECT_EQ(rec.state.meta.num_nodes, 4);
    EXPECT_EQ(rec.state.telemetry.pending_requests, 1u);
    fs::remove_all(dir);
    expectForgedMetaRefused({{.num_nodes = 0}});
}

TEST(RecoveryTest, ForgedMetaCoresOutOfRangeFailRecovery)
{
    // existctl's --cores takes 1 to 256.
    expectForgedMetaRefused({{.cores_per_node = 0},
                             {.cores_per_node = kMaxMetaCount + 1}});
}

TEST(RecoveryTest, ForgedMetaShardsOutOfRangeFailRecovery)
{
    // 0 would let ShardedMaster pick min(hardware threads, 8) shards;
    // existctl's --shards takes at most 256.
    expectForgedMetaRefused(
        {{.shards = 0}, {.shards = kMaxMetaCount + 1}});
}

TEST(RecoveryTest, ForgedMetaReplicasBelowOneFailRecovery)
{
    // Cluster::deploy needs at least one replica; -5 is what putMeta
    // writes for a negative int.
    expectForgedMetaRefused(
        {{.replicas = 0}, {.replicas = static_cast<std::uint64_t>(-5)}});
}

TEST(RecoveryTest, ForgedMetaBeyondIntFailsRecovery)
{
    // Truncated to an int, 2^32 + 4 nodes would read as 4.
    expectForgedMetaRefused({{.num_nodes = (1ULL << 32) + 4},
                             {.replicas = (1ULL << 32) + 3}});
}

TEST(RecoveryTest, RepeatedAdmitFailsAtItsLsn)
{
    // Two runs appended to one log admit the same ids twice; replaying
    // both would publish the first run's results twice, so recovery
    // fails at the repeated admit and names its LSN.
    fs::path dir = freshDir("dupadmit");
    {
        Wal wal(Wal::Config{dir.string()});
        WalRecord meta;
        meta.type = RecordType::kMeta;
        meta.meta.num_nodes = 4;
        meta.meta.cores_per_node = 2;
        meta.meta.shards = 1;
        meta.meta.deployments = {{"Cache", 3}};
        wal.append(meta);
        wal.append(admitRecord(1, "app=Cache budget_mb=64"));
        wal.append(admitRecord(2, "app=Cache budget_mb=64"));
        wal.append(admitRecord(1, "app=Cache budget_mb=64"));
    }
    RecoveryResult rec = recover(dir.string());
    EXPECT_FALSE(rec.ok);
    EXPECT_NE(rec.error.find("lsn 4: admit repeats request 1"),
              std::string::npos)
        << rec.error;
    fs::remove_all(dir);
}

TEST(CrashPointTest, NamedCountAndStepArming)
{
    CrashGuard guard("p:2");
    crashpoint::hit("q");  // different point: no fire
    crashpoint::hit("p");  // first crossing: no fire
    EXPECT_THROW(crashpoint::hit("p"), crashpoint::CrashInjected);
    EXPECT_EQ(crashpoint::steps(), 3u);
    // One-shot: only the exact nth crossing fires, later ones pass.
    EXPECT_NO_THROW(crashpoint::hit("p"));

    crashpoint::resetSteps();
    crashpoint::arm("step:3");
    crashpoint::hit("a");
    crashpoint::hit("b");
    EXPECT_THROW(crashpoint::hit("c"), crashpoint::CrashInjected);
}

// ---------------------------------------------------------------
// The crash matrix
// ---------------------------------------------------------------

struct RunConfig {
    int shards = 1;  ///< the run's shards, as its log records them
    bool net = false;
    std::uint64_t snapshot_interval = 0;  ///< 0 = never snapshot
    /** Fabric drop rate of net runs. At 0.8 most streams spill, so
     *  the report depends on every frame the agents send. */
    double loss = 0;
};

constexpr char kApp[] = "Cache";
constexpr int kReplicas = 3;
constexpr std::uint64_t kRequests = 4;

ClusterConfig
smallConfig()
{
    ClusterConfig cc;
    cc.num_nodes = 4;
    cc.cores_per_node = 2;
    cc.seed = 11;
    return cc;
}

std::vector<std::string>
demoManifests(const RunConfig &cfg)
{
    std::string extra;
    if (cfg.net)
        extra += " net=true";
    if (cfg.loss > 0)
        extra += " loss=" + std::to_string(cfg.loss);
    return {
        "app=Cache anomaly=true period_ms=12 budget_mb=64" + extra,
        "app=Cache period_ms=10 budget_mb=64" + extra,
        "app=Cache anomaly=true period_ms=10 budget_mb=64" + extra,
        "app=Cache period_ms=12 budget_mb=64" + extra,
    };
}

ClusterMeta
metaFor(const RunConfig &cfg)
{
    ClusterConfig cc = smallConfig();
    ClusterMeta meta;
    meta.cluster_seed = cc.seed;
    meta.num_nodes = cc.num_nodes;
    meta.cores_per_node = cc.cores_per_node;
    meta.shards = cfg.shards;
    meta.snapshot_interval = cfg.snapshot_interval;
    meta.deployments = {{kApp, kReplicas}};
    return meta;
}

DurabilitySpec
specFor(const RunConfig &cfg, const fs::path &dir)
{
    DurabilitySpec spec;
    spec.wal_dir = dir.string();
    spec.snapshot_interval = cfg.snapshot_interval;
    return spec;
}

/** Everything a run leaves behind that the determinism contract
 *  covers. sessionsRun is deliberately absent: recovery replays
 *  completed publishes instead of re-running their sessions. */
struct Artifacts {
    std::map<std::uint64_t, RequestPhase> phases;
    std::map<std::uint64_t, TraceReport> reports;
    std::map<std::string, std::vector<std::uint8_t>> objects;
    std::vector<TraceRow> rows;
    CoverageLedger ledger;
};

/** The crash tests' control plane: `shards` shards, everything inline
 *  so an injected crash unwinds to the caller. */
ShardedMaster
makeMaster(Cluster *cluster, int shards)
{
    return ShardedMaster(cluster, {}, shards, 1);
}

Artifacts
captureArtifacts(ShardedMaster &master)
{
    Artifacts a;
    for (std::uint64_t id = 1; id <= kRequests; ++id) {
        const TraceRequest *req = master.request(id);
        EXPECT_NE(req, nullptr) << "request " << id;
        if (req != nullptr)
            a.phases[id] = req->phase;
        if (const TraceReport *r = master.report(id))
            a.reports[id] = *r;
        for (const TraceRow *row : master.odps().queryRequest(id))
            a.rows.push_back(*row);
    }
    std::sort(a.rows.begin(), a.rows.end(),
              [](const TraceRow &x, const TraceRow &y) {
                  if (x.request_id != y.request_id)
                      return x.request_id < y.request_id;
                  return x.node < y.node;
              });
    for (const std::string &key : master.oss().listPrefix("traces/"))
        a.objects[key] = master.oss().get(key);
    a.ledger = master.coverage();
    return a;
}

void
expectArtifactsEqual(const Artifacts &got, const Artifacts &want)
{
    EXPECT_EQ(got.phases, want.phases);
    ASSERT_EQ(got.reports.size(), want.reports.size());
    for (const auto &[id, report] : want.reports) {
        ASSERT_TRUE(got.reports.count(id)) << "report " << id;
        EXPECT_TRUE(got.reports.at(id) == report)
            << "report " << id << " diverged";
    }
    EXPECT_EQ(got.objects, want.objects);
    ASSERT_EQ(got.rows.size(), want.rows.size());
    for (std::size_t i = 0; i < want.rows.size(); ++i)
        EXPECT_EQ(got.rows[i], want.rows[i]) << "row " << i;
    EXPECT_TRUE(got.ledger == want.ledger);
}

Artifacts
driveToCompletion(ShardedMaster &master,
                  const std::vector<std::string> &manifests)
{
    for (const std::string &m : manifests)
        master.apply(m);
    master.reconcile();
    return captureArtifacts(master);
}

/** A crash-free run with no journal: the golden artifacts. */
Artifacts
golden(const RunConfig &cfg)
{
    Cluster cluster(smallConfig());
    cluster.deploy(kApp, kReplicas);
    ShardedMaster master = makeMaster(&cluster, cfg.shards);
    return driveToCompletion(master, demoManifests(cfg));
}

/** Run journaled to completion (threads=1 so an armed crash unwinds
 *  here); returns true if the armed crash fired. */
bool
journaledRun(const RunConfig &cfg, const fs::path &dir)
{
    Cluster cluster(smallConfig());
    cluster.deploy(kApp, kReplicas);
    Journal journal(specFor(cfg, dir), metaFor(cfg));
    ShardedMaster master = makeMaster(&cluster, cfg.shards);
    master.attachJournal(&journal);
    try {
        for (const std::string &m : demoManifests(cfg))
            master.apply(m);
        master.reconcile();
        journal.maybeSnapshot(
            [&master] { return master.dumpState(); });
    } catch (const crashpoint::CrashInjected &) {
        return true;
    }
    return false;
}

/** Recover `dir`, finish the run (client-retrying admissions the WAL
 *  never saw), and return the artifacts. */
Artifacts
recoverAndFinish(const RunConfig &cfg, const fs::path &dir)
{
    RecoveryResult rec = recover(dir.string());
    EXPECT_TRUE(rec.ok) << rec.error;
    if (!rec.ok)
        return {};
    const RecoveredState &st = rec.state;
    EXPECT_EQ(st.meta, metaFor(cfg));

    Cluster cluster(smallConfig());
    for (const auto &[app, replicas] : st.meta.deployments)
        cluster.deploy(app, replicas);
    Journal journal(specFor(cfg, dir), st.meta);

    std::vector<std::string> ms = demoManifests(cfg);
    // Admissions are durable before the id is acknowledged, so the
    // recovered next_id tells the "client" which submissions the
    // crashed master never accepted.
    EXPECT_GE(st.dump.next_id, 1u);
    EXPECT_LE(st.dump.next_id, ms.size() + 1);
    std::vector<std::string> missing(
        ms.begin() +
            static_cast<std::ptrdiff_t>(st.dump.next_id - 1),
        ms.end());

    ShardedMaster master = makeMaster(&cluster, st.meta.shards);
    master.restoreForRecovery(st.dump);
    master.attachJournal(&journal);
    for (const std::string &m : missing)
        master.apply(m);
    master.reconcile();
    journal.maybeSnapshot([&master] { return master.dumpState(); });
    return captureArtifacts(master);
}

void
crashRecoverCompare(const RunConfig &cfg, const std::string &spec,
                    const Artifacts &want, const std::string &tag)
{
    SCOPED_TRACE(tag + " crash=" + spec);
    fs::path dir = freshDir(tag);
    bool crashed = false;
    {
        CrashGuard guard(spec);
        crashed = journaledRun(cfg, dir);
    }
    ASSERT_TRUE(crashed) << "crash spec never fired: " << spec;
    Artifacts got = recoverAndFinish(cfg, dir);
    expectArtifactsEqual(got, want);
    fs::remove_all(dir);
}

TEST(RecoveryMatrixTest, BatchCombos)
{
    // shards x collection transport; one representative crash point
    // each (on the net path, post-plan stands for every crash between
    // a request's plan and its publish: all of them re-run it).
    {
        RunConfig cfg{/*shards=*/1, /*net=*/false,
                      /*snapshot_interval=*/0};
        Artifacts want = golden(cfg);
        crashRecoverCompare(cfg, "pre-store:2", want, "b1i");
    }
    {
        RunConfig cfg{4, false, 0};
        Artifacts want = golden(cfg);
        crashRecoverCompare(cfg, "admit:3", want, "b4i");
    }
    {
        RunConfig cfg{1, true, 0};
        Artifacts want = golden(cfg);
        crashRecoverCompare(cfg, "post-plan:3", want, "b1n");
    }
    {
        RunConfig cfg{4, true, 0};
        Artifacts want = golden(cfg);
        crashRecoverCompare(cfg, "post-plan:2", want, "b4n");
    }
}

TEST(RecoveryMatrixTest, EveryNamedPointShardedNet)
{
    // The heavy combo crosses all five named points (snapshots due
    // every 2 publishes), on a clean fabric and on one that drops 80%
    // of frames. Each one must recover byte-identically.
    for (double loss : {0.0, 0.8}) {
        SCOPED_TRACE("loss=" + std::to_string(loss));
        RunConfig cfg{4, true, /*snapshot_interval=*/2, loss};
        Artifacts want = golden(cfg);
        int i = 0;
        for (const char *point : {"admit:2", "post-plan:2", "pre-store:2",
                                  "mid-snapshot", "post-snapshot"})
            crashRecoverCompare(cfg, point, want,
                                "named" + std::to_string(i++));
    }
}

TEST(RecoveryMatrixTest, RandomizedEventQueueSteps)
{
    // The randomized mode: measure the crash-step space S with a
    // crash-free journaled run, then kill the master at >= 8
    // uniformly drawn journal-order boundaries, on a clean and on a
    // lossy fabric. Every draw must recover byte-identically.
    for (double loss : {0.0, 0.8}) {
        SCOPED_TRACE("loss=" + std::to_string(loss));
        RunConfig cfg{4, true, /*snapshot_interval=*/2, loss};
        Artifacts want = golden(cfg);

        fs::path probe = freshDir("stepspace");
        crashpoint::resetSteps();
        ASSERT_FALSE(journaledRun(cfg, probe));
        std::uint64_t space = crashpoint::steps();
        fs::remove_all(probe);
        ASSERT_GE(space, 8u) << "step space too small to randomize";

        Rng rng(0x5eed5eedULL);
        for (int i = 0; i < 8; ++i) {
            std::uint64_t n = 1 + rng.uniformInt(space);
            crashRecoverCompare(cfg, "step:" + std::to_string(n), want,
                                "step" + std::to_string(i));
        }
    }
}

TEST(RecoveryTest, JournaledRunMatchesUnjournaledByteForByte)
{
    // WAL on vs off: journaling is pure observation. Also pins that
    // a crash-free journaled run leaves a replayable log behind.
    for (int shards : {1, 2}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        RunConfig cfg{shards, false, /*snapshot_interval=*/2};
        Artifacts want = golden(cfg);

        fs::path dir = freshDir("walonoff");
        Cluster cluster(smallConfig());
        cluster.deploy(kApp, kReplicas);
        Journal journal(specFor(cfg, dir), metaFor(cfg));
        ShardedMaster master = makeMaster(&cluster, shards);
        master.attachJournal(&journal);
        Artifacts got = driveToCompletion(master, demoManifests(cfg));
        journal.maybeSnapshot([&master] { return master.dumpState(); });
        expectArtifactsEqual(got, want);

        // The log it left is itself recoverable, with nothing
        // pending, and reproduces the same state image.
        RecoveryResult rec = recover(dir.string());
        ASSERT_TRUE(rec.ok) << rec.error;
        EXPECT_EQ(rec.state.telemetry.pending_requests, 0u);
        EXPECT_TRUE(rec.state.telemetry.snapshot_used);
        EXPECT_EQ(rec.state.dump.requests.size(), kRequests);
        for (const auto &[id, req] : rec.state.dump.requests)
            EXPECT_EQ(req.phase, RequestPhase::kCompleted);
        fs::remove_all(dir);
    }
}

TEST(RecoveryTest, SnapshotBoundsReplayNotRunLength)
{
    // The recovery-latency contract: with snapshots every 2
    // publishes, the WAL tail replayed after a long run stays O(1)
    // records, however many requests completed before the crash.
    RunConfig cfg{2, false, /*snapshot_interval=*/2};
    fs::path dir = freshDir("bounded");
    {
        Cluster cluster(smallConfig());
        cluster.deploy(kApp, kReplicas);
        Journal journal(specFor(cfg, dir), metaFor(cfg));
        ShardedMaster master = makeMaster(&cluster, cfg.shards);
        master.attachJournal(&journal);
        std::vector<std::string> ms = demoManifests(cfg);
        // Three reconcile epochs = 12 publishes, snapshotting at
        // every epoch boundary.
        for (int epoch = 0; epoch < 3; ++epoch) {
            for (const std::string &m : ms)
                master.apply(m);
            master.reconcile();
            journal.maybeSnapshot(
                [&master] { return master.dumpState(); });
        }
    }
    RecoveryResult rec = recover(dir.string());
    ASSERT_TRUE(rec.ok) << rec.error;
    EXPECT_TRUE(rec.state.telemetry.snapshot_used);
    EXPECT_EQ(rec.state.dump.requests.size(), 3 * kRequests);
    // Everything before the barrier came from the image, not replay.
    EXPECT_EQ(rec.state.telemetry.replayed_publishes, 0u);
    EXPECT_EQ(rec.state.telemetry.wal_records, 0u);
    // And truncation reclaimed segments below the older barrier.
    EXPECT_GE(listSnapshots(dir.string()).size(), 1u);
    EXPECT_LE(listSnapshots(dir.string()).size(), 2u);
    fs::remove_all(dir);
}

}  // namespace
}  // namespace exist::durability
