/**
 * @file
 * Property/fuzz tests: randomized inputs against invariants that must
 * hold for any input — byte conservation in ToPA, parser termination
 * on arbitrary bytes, writer/parser agreement on random packet
 * sequences, CRD manifest round-trips, and the durability plane's
 * loud-failure contract: a corrupted WAL or snapshot (bit flips,
 * torn tails, duplicated segments) must either recover to a
 * byte-identical id-order prefix of the golden log or fail with an
 * explicit error — never crash, never silently diverge.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "cluster/crd.h"
#include "decode/packet_parser.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "hwtrace/packet_writer.h"
#include "hwtrace/topa.h"
#include "net/frame.h"
#include "util/rng.h"

namespace exist {
namespace {

TEST(Fuzz, TopaConservesBytesUnderRandomWrites)
{
    Rng rng(101);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<TopaEntry> entries;
        int nregions = 1 + static_cast<int>(rng.uniformInt(4));
        for (int i = 0; i < nregions; ++i)
            entries.push_back(TopaEntry{
                16 + rng.uniformInt(256),
                /*stop=*/i == nregions - 1 && rng.bernoulli(0.5),
                /*intr=*/rng.bernoulli(0.3)});
        bool ring = !entries.back().stop && rng.bernoulli(0.7);
        if (!entries.back().stop && !ring)
            entries.back().stop = true;

        TopaBuffer buf;
        buf.configure(entries, ring);
        std::uint64_t sent = 0;
        std::uint8_t chunk[64];
        for (int w = 0; w < 40; ++w) {
            std::uint64_t n = 1 + rng.uniformInt(sizeof(chunk));
            TopaWriteResult r = buf.write(chunk, n);
            sent += n;
            ASSERT_EQ(r.accepted + r.dropped, n);
        }
        ASSERT_EQ(buf.bytesAccepted() + buf.bytesDropped(), sent);
        if (!ring) {
            ASSERT_LE(buf.bytesAccepted(), buf.capacity());
        }
    }
}

TEST(Fuzz, ParserTerminatesOnArbitraryBytes)
{
    Rng rng(202);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<std::uint8_t> junk(
            1 + rng.uniformInt(4096));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.next());
        PacketParser parser(junk.data(), junk.size());
        Packet pkt;
        std::size_t guard = 0;
        std::size_t last_off = 0;
        while (parser.next(pkt)) {
            // Progress: the offset must strictly advance.
            ASSERT_GT(parser.offset(), last_off);
            last_off = parser.offset();
            ASSERT_LT(++guard, junk.size() + 16);
        }
    }
}

TEST(Fuzz, WriterParserAgreeOnRandomSequences)
{
    Rng rng(303);
    for (int trial = 0; trial < 20; ++trial) {
        TopaBuffer buf;
        buf.configure({TopaEntry{1 << 20, true, false}}, false);
        PacketWriter writer(&buf);
        writer.resetState(0);

        struct Expect {
            int kind;  // 0 tnt-bit, 1 tip, 2 pge, 3 pgd
            std::uint64_t value;
        };
        std::vector<Expect> script;
        Cycles now = 0;
        std::uint64_t ip = 0x400000;
        bool on = false;
        for (int i = 0; i < 3000; ++i) {
            now += 1 + rng.uniformInt(500);
            double u = rng.uniform();
            if (!on || u < 0.1) {
                ip = 0x400000 + rng.uniformInt(1 << 20) * 4;
                writer.pge(ip, now);
                script.push_back({2, ip});
                on = true;
            } else if (u < 0.75) {
                bool taken = rng.bernoulli(0.6);
                writer.tnt(taken, now);
                script.push_back({0, taken ? 1u : 0u});
            } else if (u < 0.95) {
                ip = 0x400000 + rng.uniformInt(1 << 20) * 4;
                writer.tip(ip, now);
                script.push_back({1, ip});
            } else {
                writer.pgd(now);
                script.push_back({3, 0});
                on = false;
            }
        }
        writer.flushTnt(now);

        // Parse back; TNT bits may arrive later than TIPs (deferred
        // TNT), so compare per-kind streams.
        std::vector<std::uint64_t> want_tips, got_tips;
        std::vector<int> want_bits, got_bits;
        int want_pge = 0, got_pge = 0, want_pgd = 0, got_pgd = 0;
        for (const Expect &e : script) {
            switch (e.kind) {
              case 0: want_bits.push_back(static_cast<int>(e.value));
                      break;
              case 1: want_tips.push_back(e.value); break;
              case 2: ++want_pge; break;
              case 3: ++want_pgd; break;
            }
        }
        PacketParser parser(buf.data().data(), buf.bytesAccepted());
        Packet pkt;
        while (parser.next(pkt)) {
            switch (pkt.op) {
              case PacketOp::kTnt6:
                for (int i = 0; i < pkt.tnt_count; ++i)
                    got_bits.push_back((pkt.tnt_bits >> i) & 1);
                break;
              case PacketOp::kTip:
                got_tips.push_back(pkt.value);
                break;
              case PacketOp::kTipPge:
                ++got_pge;
                break;
              case PacketOp::kTipPgd:
                ++got_pgd;
                break;
              default:
                break;
            }
        }
        ASSERT_EQ(got_tips, want_tips);
        ASSERT_EQ(got_bits, want_bits);
        ASSERT_EQ(got_pge, want_pge);
        ASSERT_EQ(got_pgd, want_pgd);
        ASSERT_EQ(parser.resyncCount(), 0u);
    }
}

TEST(Fuzz, FrameRoundTripsRandomPayloads)
{
    Rng rng(505);
    for (int trial = 0; trial < 200; ++trial) {
        net::TraceRegionBatchMsg msg;
        msg.node = static_cast<NodeId>(rng.uniformInt(64));
        msg.stream = rng.uniformInt(1 << 20);
        msg.batch_seq = rng.uniformInt(1 << 16);
        msg.total_batches = msg.batch_seq + 1 + rng.uniformInt(100);
        msg.chunk.resize(rng.uniformInt(4096));
        for (auto &b : msg.chunk)
            b = static_cast<std::uint8_t>(rng.next());

        std::vector<std::uint8_t> wire = net::encodeFrame(msg);
        net::Frame frame;
        std::size_t consumed = 0;
        ASSERT_EQ(net::decodeFrame(wire.data(), wire.size(), &frame,
                                   &consumed),
                  net::DecodeStatus::kOk);
        ASSERT_EQ(consumed, wire.size());
        ASSERT_EQ(frame.type, net::MsgType::kTraceRegionBatch);
        ASSERT_EQ(frame.batch.node, msg.node);
        ASSERT_EQ(frame.batch.stream, msg.stream);
        ASSERT_EQ(frame.batch.batch_seq, msg.batch_seq);
        ASSERT_EQ(frame.batch.total_batches, msg.total_batches);
        ASSERT_EQ(frame.batch.chunk, msg.chunk);
    }
}

TEST(Fuzz, TruncatedFramesReportTruncatedNeverCrash)
{
    Rng rng(606);
    for (int trial = 0; trial < 50; ++trial) {
        net::BehaviorReportMsg msg;
        msg.node = static_cast<NodeId>(rng.uniformInt(8));
        msg.stream = rng.uniformInt(100);
        msg.degraded = rng.bernoulli(0.5);
        msg.summary.assign(rng.uniformInt(512), 's');
        std::vector<std::uint8_t> wire = net::encodeFrame(msg);

        // Every strict prefix must decode as kTruncated with zero
        // bytes consumed — never a crash, never a partial parse.
        std::size_t cut = rng.uniformInt(wire.size());
        net::Frame frame;
        std::size_t consumed = 1;
        ASSERT_EQ(net::decodeFrame(wire.data(), cut, &frame,
                                   &consumed),
                  net::DecodeStatus::kTruncated);
        ASSERT_EQ(consumed, 0u);
    }
}

TEST(Fuzz, CorruptedFramesAreRejected)
{
    Rng rng(707);
    for (int trial = 0; trial < 200; ++trial) {
        net::AckMsg msg;
        msg.node = static_cast<NodeId>(rng.uniformInt(8));
        msg.stream = rng.uniformInt(100);
        msg.batch_seq = rng.uniformInt(1000);
        msg.cumulative = rng.uniformInt(1000);
        msg.window = static_cast<std::uint32_t>(rng.uniformInt(64));
        std::vector<std::uint8_t> wire = net::encodeFrame(msg);

        // Flip one random bit anywhere in the frame: decode must
        // either reject it or (if the flip hit a then-self-consistent
        // header field... it cannot: magic, version, length and
        // checksum all cross-check the payload) — assert rejection.
        std::size_t pos = rng.uniformInt(wire.size());
        wire[pos] ^= static_cast<std::uint8_t>(
            1u << rng.uniformInt(8));
        net::Frame frame;
        std::size_t consumed = 0;
        net::DecodeStatus st =
            net::decodeFrame(wire.data(), wire.size(), &frame,
                             &consumed);
        ASSERT_NE(st, net::DecodeStatus::kOk)
            << "single-bit corruption at byte " << pos
            << " decoded as a valid frame";
        ASSERT_EQ(consumed, 0u);
    }
}

TEST(Fuzz, DecoderTerminatesOnArbitraryFrameBytes)
{
    Rng rng(808);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<std::uint8_t> junk(1 + rng.uniformInt(8192));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.next());
        // Occasionally splice a real header in front so the length /
        // checksum paths are hit too, not just kBadMagic.
        if (rng.bernoulli(0.5)) {
            net::AckMsg ack;
            ack.node = 1;
            ack.batch_seq = rng.uniformInt(100);
            std::vector<std::uint8_t> real = net::encodeFrame(ack);
            std::copy(real.begin(),
                      real.begin() +
                          static_cast<std::ptrdiff_t>(std::min(
                              real.size(), junk.size())),
                      junk.begin());
            if (junk.size() > 6)
                junk[6] ^= 0xff;  // corrupt the length prefix
        }
        net::Frame frame;
        std::size_t consumed = 0;
        net::DecodeStatus st = net::decodeFrame(
            junk.data(), junk.size(), &frame, &consumed);
        if (st != net::DecodeStatus::kOk)
            ASSERT_EQ(consumed, 0u);
        else
            ASSERT_LE(consumed, junk.size());
    }
}

TEST(Fuzz, CrdManifestRoundTrips)
{
    Rng rng(404);
    const char *apps[] = {"Search1", "Cache", "mc", "a-b_c.9"};
    for (int trial = 0; trial < 100; ++trial) {
        TraceRequest req;
        req.app = apps[rng.uniformInt(4)];
        req.anomaly = rng.bernoulli(0.5);
        req.budget_mb = 1 + rng.uniformInt(2000);
        req.ring_buffers = rng.bernoulli(0.3);
        if (rng.bernoulli(0.5))
            req.period_override =
                kCyclesPerMs * (1 + rng.uniformInt(2000));
        if (rng.bernoulli(0.4))
            req.core_sample_ratio = 0.1 + 0.9 * rng.uniform();

        TraceRequest again;
        std::string error;
        ASSERT_TRUE(TraceRequest::parse(req.toManifest(), &again, &error))
            << req.toManifest() << ": " << error;
        EXPECT_EQ(again.app, req.app);
        EXPECT_EQ(again.anomaly, req.anomaly);
        EXPECT_EQ(again.budget_mb, req.budget_mb);
        EXPECT_EQ(again.ring_buffers, req.ring_buffers);
        EXPECT_NEAR(static_cast<double>(again.period_override),
                    static_cast<double>(req.period_override),
                    static_cast<double>(kCyclesPerMs) * 0.01);
        EXPECT_NEAR(again.core_sample_ratio, req.core_sample_ratio,
                    1e-6);
    }
}

TEST(Fuzz, RandomManifestsParseOrFailNeverAbort)
{
    // Arbitrary tokens: known, deleted and unknown keys, values at and
    // past every range edge, junk bytes. parse() either accepts, and
    // then its rendering re-parses to the same rendering, or returns
    // an error. It never aborts.
    Rng rng(405);
    const char *keys[] = {"app", "anomaly", "period_ms", "budget_mb",
                          "ring", "core_sample_ratio", "net", "loss",
                          "reorder", "duplicate", "link_latency_us",
                          "wal", "tnt_memo_bits", "frobnicate", ""};
    const char *values[] = {"", "0", "1", "-1", "true", "false", "abc",
                            "0.5", "1e9", "1e300", "-0", "inf", "nan",
                            "0x1p3", "1048577", "99999999999999999999",
                            "5x", "30.7", "0.9999999", "1e-9", "=",
                            "Search1"};
    std::size_t accepted = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        std::string manifest = rng.bernoulli(0.8) ? "app=Cache" : "";
        for (std::uint64_t t = 0, n = rng.uniformInt(6); t < n; ++t) {
            manifest += ' ';
            if (rng.bernoulli(0.1)) {
                // Printable junk with no shape guarantees at all.
                for (std::uint64_t k = 0, m = 1 + rng.uniformInt(8); k < m;
                     ++k)
                    manifest += static_cast<char>('!' + rng.uniformInt(94));
                continue;
            }
            manifest += keys[rng.uniformInt(std::size(keys))];
            if (!rng.bernoulli(0.05))
                manifest += '=';
            manifest += values[rng.uniformInt(std::size(values))];
        }
        TraceRequest req;
        std::string error;
        if (!TraceRequest::parse(manifest, &req, &error)) {
            EXPECT_FALSE(error.empty()) << manifest;
            continue;
        }
        ++accepted;
        TraceRequest again;
        ASSERT_TRUE(TraceRequest::parse(req.toManifest(), &again, &error))
            << manifest << " -> " << req.toManifest() << ": " << error;
        EXPECT_EQ(again.toManifest(), req.toManifest()) << manifest;
    }
    EXPECT_GT(accepted, 100u);
}

// ----------------------------------------------------------------
// Durability-plane corruption fuzz (DESIGN.md §12)
// ----------------------------------------------------------------

namespace fsys = std::filesystem;

fsys::path
fuzzDir(const std::string &tag)
{
    static int counter = 0;
    fsys::path p = fsys::temp_directory_path() /
                   ("exist_fuzz_" + std::to_string(::getpid()) + "_" +
                    tag + "_" + std::to_string(counter++));
    fsys::remove_all(p);
    fsys::create_directories(p);
    return p;
}

std::vector<std::uint8_t>
slurp(const fsys::path &p)
{
    std::ifstream in(p, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
spit(const fsys::path &p, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

void
copyDir(const fsys::path &from, const fsys::path &to)
{
    fsys::remove_all(to);
    fsys::create_directories(to);
    for (const auto &e : fsys::directory_iterator(from))
        fsys::copy_file(e.path(), to / e.path().filename());
}

/** A small multi-segment golden WAL of admit records. */
std::vector<durability::WalRecord>
buildGoldenWal(const fsys::path &dir, int records)
{
    durability::Wal wal(durability::Wal::Config{dir.string(), 96});
    durability::WalRecord meta;
    meta.type = durability::RecordType::kMeta;
    meta.meta.cluster_seed = 3;
    meta.meta.num_nodes = 4;
    meta.meta.cores_per_node = 2;
    meta.meta.deployments = {{"Cache", 3}};
    wal.append(meta);
    for (int i = 1; i < records; ++i) {
        durability::WalRecord rec;
        rec.type = durability::RecordType::kAdmit;
        rec.request_id = static_cast<std::uint64_t>(i);
        rec.manifest = "app=Cache anomaly=true budget_mb=" +
                       std::to_string(64 + i);
        wal.append(rec);
    }
    durability::Wal::ReplayResult golden =
        durability::Wal::replay(dir.string(), 1);
    EXPECT_TRUE(golden.ok) << golden.error;
    EXPECT_EQ(golden.records.size(),
              static_cast<std::size_t>(records));
    return golden.records;
}

/** The invariant every corruption must preserve: replay yields an
 *  exact LSN-order prefix of the golden records, or an explicit
 *  error. */
void
expectPrefixOrLoudError(
    const durability::Wal::ReplayResult &rr,
    const std::vector<durability::WalRecord> &golden)
{
    if (!rr.ok) {
        EXPECT_FALSE(rr.error.empty());
        return;
    }
    ASSERT_LE(rr.records.size(), golden.size());
    for (std::size_t i = 0; i < rr.records.size(); ++i) {
        const durability::WalRecord &got = rr.records[i];
        const durability::WalRecord &want = golden[i];
        ASSERT_EQ(got.lsn, want.lsn);
        ASSERT_EQ(got.type, want.type);
        ASSERT_EQ(got.request_id, want.request_id);
        ASSERT_EQ(got.manifest, want.manifest);
    }
}

TEST(Fuzz, WalBitFlipsRecoverPrefixOrFailLoudly)
{
    fsys::path golden_dir = fuzzDir("walflip_golden");
    std::vector<durability::WalRecord> golden =
        buildGoldenWal(golden_dir, 8);
    std::vector<std::string> segs =
        durability::Wal::listSegments(golden_dir.string());
    ASSERT_GE(segs.size(), 2u);

    Rng rng(505);
    fsys::path work = fuzzDir("walflip_work");
    for (int trial = 0; trial < 60; ++trial) {
        copyDir(golden_dir, work);
        std::vector<std::string> wsegs =
            durability::Wal::listSegments(work.string());
        // Flip 1-3 random bits across random segments.
        int flips = 1 + static_cast<int>(rng.uniformInt(3));
        for (int f = 0; f < flips; ++f) {
            const std::string &seg =
                wsegs[rng.uniformInt(wsegs.size())];
            std::vector<std::uint8_t> bytes(slurp(seg));
            ASSERT_FALSE(bytes.empty());
            std::uint64_t at = rng.uniformInt(bytes.size());
            bytes[at] ^= static_cast<std::uint8_t>(
                1u << rng.uniformInt(8));
            spit(seg, bytes);
        }
        expectPrefixOrLoudError(
            durability::Wal::replay(work.string(), 1), golden);
    }
    fsys::remove_all(golden_dir);
    fsys::remove_all(work);
}

TEST(Fuzz, WalTornTailsRecoverPrefixOrFailLoudly)
{
    fsys::path golden_dir = fuzzDir("waltorn_golden");
    std::vector<durability::WalRecord> golden =
        buildGoldenWal(golden_dir, 8);

    Rng rng(606);
    fsys::path work = fuzzDir("waltorn_work");
    for (int trial = 0; trial < 30; ++trial) {
        copyDir(golden_dir, work);
        std::vector<std::string> wsegs =
            durability::Wal::listSegments(work.string());
        // Truncate a random segment at a random length; on the last
        // segment that is a clean torn tail, mid-log it loses
        // records and must fail.
        std::size_t victim = rng.uniformInt(wsegs.size());
        std::uint64_t size = fsys::file_size(wsegs[victim]);
        fsys::resize_file(wsegs[victim], rng.uniformInt(size));

        durability::Wal::ReplayResult rr =
            durability::Wal::replay(work.string(), 1);
        expectPrefixOrLoudError(rr, golden);
        if (victim + 1 < wsegs.size()) {
            EXPECT_FALSE(rr.ok) << "mid-log truncation must be loud";
        }
    }
    fsys::remove_all(golden_dir);
    fsys::remove_all(work);
}

TEST(Fuzz, WalDuplicatedSegmentsNeverSilentlyDiverge)
{
    fsys::path golden_dir = fuzzDir("waldup_golden");
    std::vector<durability::WalRecord> golden =
        buildGoldenWal(golden_dir, 8);

    Rng rng(707);
    fsys::path work = fuzzDir("waldup_work");
    for (int trial = 0; trial < 20; ++trial) {
        copyDir(golden_dir, work);
        std::vector<std::string> wsegs =
            durability::Wal::listSegments(work.string());
        // Duplicate a random segment under a fresh name whose LSN
        // slots after the log: the header no longer matches the
        // name, which replay must reject (re-delivered-bytes shape).
        const std::string &src = wsegs[rng.uniformInt(wsegs.size())];
        char name[64];
        std::snprintf(name, sizeof name, "wal-%016llx.seg",
                      (unsigned long long)(100 + trial));
        fsys::copy_file(src, work / name);

        durability::Wal::ReplayResult rr =
            durability::Wal::replay(work.string(), 1);
        expectPrefixOrLoudError(rr, golden);
        EXPECT_FALSE(rr.ok) << "mismatched segment must be loud";
    }
    fsys::remove_all(golden_dir);
    fsys::remove_all(work);
}

TEST(Fuzz, SnapshotBitFlipsLoadIntactOrFallBack)
{
    fsys::path dir = fuzzDir("snapflip");
    durability::SnapshotState older;
    older.meta.cluster_seed = 3;
    older.meta.num_nodes = 4;
    older.meta.cores_per_node = 2;
    older.meta.deployments = {{"Cache", 3}};
    older.barrier_lsn = 4;
    older.dump.next_id = 2;
    durability::SnapshotState newer = older;
    newer.barrier_lsn = 9;
    newer.dump.next_id = 5;
    newer.dump.objects = {{"traces/4/n2", {7, 7, 7}}};

    std::string error;
    ASSERT_TRUE(writeSnapshot(dir.string(), older, &error)) << error;
    ASSERT_TRUE(writeSnapshot(dir.string(), newer, &error)) << error;
    auto snaps = durability::listSnapshots(dir.string());
    ASSERT_EQ(snaps.size(), 2u);
    std::vector<std::uint8_t> newest(slurp(snaps[1].second));

    Rng rng(808);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<std::uint8_t> bytes = newest;
        std::uint64_t at = rng.uniformInt(bytes.size());
        bytes[at] ^=
            static_cast<std::uint8_t>(1u << rng.uniformInt(8));
        spit(snaps[1].second, bytes);

        durability::SnapshotLoad load =
            durability::loadNewestSnapshot(dir.string());
        ASSERT_TRUE(load.found);
        // Either the flip was caught (fall back to the older
        // barrier, reason recorded) or the image validated — in
        // which case it must be bit-identical to what was written:
        // a validated-but-diverged load would be silent corruption.
        ASSERT_TRUE(load.ok) << load.error;
        if (load.state.barrier_lsn == 9) {
            EXPECT_EQ(load.state.dump.next_id, 5u);
            EXPECT_EQ(load.state.dump.objects, newer.dump.objects);
            EXPECT_EQ(load.state.meta, newer.meta);
        } else {
            EXPECT_EQ(load.state.barrier_lsn, 4u);
            EXPECT_EQ(load.state.dump.next_id, 2u);
            EXPECT_FALSE(load.error.empty());
        }
    }
    fsys::remove_all(dir);
}

}  // namespace
}  // namespace exist
