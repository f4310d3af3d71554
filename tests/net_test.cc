/**
 * @file
 * Collection-plane transport tests: the frame codec (round trips,
 * corruption rejection), the simulated fabric's timing / fault model,
 * and the wire-log determinism regression — two runs at one seed must
 * produce byte-identical wire-level event logs.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/frame.h"
#include "net/wire.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace exist::net {
namespace {

TEST(WireTest, VarintAndZigzagRoundTrip)
{
    std::vector<std::uint8_t> buf;
    ByteWriter w(&buf);
    const std::uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20,
                                    ~std::uint64_t{0}};
    for (std::uint64_t v : values)
        w.putVarint(v);
    const std::int64_t svalues[] = {0, -1, 1, -64, 64, -1'000'000};
    for (std::int64_t v : svalues)
        w.putSVarint(v);
    ByteReader r(buf.data(), buf.size());
    for (std::uint64_t v : values)
        EXPECT_EQ(r.getVarint(), v);
    for (std::int64_t v : svalues)
        EXPECT_EQ(r.getSVarint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, DoubleIsBitExact)
{
    std::vector<std::uint8_t> buf;
    ByteWriter w(&buf);
    const double values[] = {0.0, -0.0, 0.1, 1.0 / 3.0, 1e300,
                             -2.5e-308};
    for (double v : values)
        w.putDouble(v);
    ByteReader r(buf.data(), buf.size());
    for (double v : values) {
        double got = r.getDouble();
        EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0);
    }
}

TEST(WireTest, DeltaArrayRoundTripsUnsortedValues)
{
    std::vector<std::uint64_t> values = {100, 90, 250, 0, 7, 7,
                                         1u << 30};
    std::vector<std::uint8_t> buf;
    ByteWriter w(&buf);
    w.putDeltaArray(values);
    ByteReader r(buf.data(), buf.size());
    EXPECT_EQ(r.getDeltaArray(), values);
    EXPECT_TRUE(r.ok());
}

TEST(WireTest, DeltaArrayPacksSmoothProfilesTightly)
{
    // A smooth (nearly sorted) profile should cost far fewer bytes
    // than 8 per element — the reason the agent delta-encodes.
    std::vector<std::uint64_t> profile;
    for (int i = 0; i < 1000; ++i)
        profile.push_back(1'000'000 + static_cast<std::uint64_t>(i) * 17);
    std::vector<std::uint8_t> buf;
    ByteWriter w(&buf);
    w.putDeltaArray(profile);
    EXPECT_LT(buf.size(), profile.size() * 8 / 4);
}

TEST(WireTest, ReaderLatchesOnTruncation)
{
    std::vector<std::uint8_t> buf;
    ByteWriter w(&buf);
    w.putU64(42);
    ByteReader r(buf.data(), 3);  // deliberately short
    EXPECT_EQ(r.getU64(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.getVarint(), 0u);  // still latched
}

std::uint64_t
checksumOf(const std::string &s)
{
    return checksum64(reinterpret_cast<const std::uint8_t *>(s.data()),
                      s.size());
}

TEST(WireTest, Checksum64IsXxh64WithSeedZero)
{
    // The XXH64 reference values: the empty input, the short tails
    // (one byte, three bytes) and a 32-byte stripe plus a tail.
    EXPECT_EQ(checksumOf(""), 0xef46db3751d8e999ULL);
    EXPECT_EQ(checksumOf("a"), 0xd24ec4f1a98c6e5bULL);
    EXPECT_EQ(checksumOf("abc"), 0x44bc2cf5ad770999ULL);
    EXPECT_EQ(checksumOf("Nobody inspects the spammish repetition"),
              0xfbcea83c8a378bf1ULL);
}

TEST(WireTest, Checksum64SeesEverySingleBitFlip)
{
    // 100 bytes: three 32-byte stripes and a 4-byte tail.
    std::vector<std::uint8_t> buf(100);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 37 + 11);
    const std::uint64_t clean = checksum64(buf.data(), buf.size());
    for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
        const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
        buf[bit / 8] ^= mask;
        EXPECT_NE(checksum64(buf.data(), buf.size()), clean)
            << "bit " << bit;
        buf[bit / 8] ^= mask;
    }
}

TEST(FrameTest, BatchRoundTrip)
{
    TraceRegionBatchMsg msg;
    msg.node = 3;
    msg.stream = 7;
    msg.batch_seq = 11;
    msg.total_batches = 42;
    msg.chunk = {1, 2, 3, 250, 255, 0};
    std::vector<std::uint8_t> wire = encodeFrame(msg);

    Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(decodeFrame(wire.data(), wire.size(), &frame, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(frame.type, MsgType::kTraceRegionBatch);
    EXPECT_EQ(frame.batch.node, 3);
    EXPECT_EQ(frame.batch.stream, 7u);
    EXPECT_EQ(frame.batch.batch_seq, 11u);
    EXPECT_EQ(frame.batch.total_batches, 42u);
    EXPECT_EQ(frame.batch.chunk, msg.chunk);
}

TEST(FrameTest, AllTypesRoundTrip)
{
    BehaviorReportMsg rep;
    rep.node = 1;
    rep.stream = 2;
    rep.degraded = true;
    rep.batches_spilled = 9;
    rep.summary = "cpi=1.25 branches=100";
    AckMsg ack;
    ack.node = 4;
    ack.stream = 2;
    ack.batch_seq = kFinaleSeq;
    ack.cumulative = 17;
    ack.window = 5;

    Frame frame;
    std::size_t consumed = 0;
    std::vector<std::uint8_t> wire = encodeFrame(rep);
    ASSERT_EQ(decodeFrame(wire.data(), wire.size(), &frame, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(frame.type, MsgType::kBehaviorReport);
    EXPECT_TRUE(frame.report.degraded);
    EXPECT_EQ(frame.report.batches_spilled, 9u);
    EXPECT_EQ(frame.report.summary, rep.summary);

    wire = encodeFrame(ack);
    ASSERT_EQ(decodeFrame(wire.data(), wire.size(), &frame, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(frame.type, MsgType::kAck);
    EXPECT_EQ(frame.ack.batch_seq, kFinaleSeq);
    EXPECT_EQ(frame.ack.cumulative, 17u);
    EXPECT_EQ(frame.ack.window, 5u);
}

TEST(FrameTest, RetiredHeartbeatTypeIsBadPayload)
{
    // A well-formed envelope of type 4 (the retired Heartbeat: node,
    // seq, queue depth) with a matching checksum: the envelope checks
    // pass, and the unknown type fails as a body that does not parse.
    std::vector<std::uint8_t> body;
    ByteWriter b(&body);
    b.putSVarint(6);
    b.putVarint(99);
    b.putVarint(12);
    std::vector<std::uint8_t> wire;
    ByteWriter w(&wire);
    w.putU32(kFrameMagic);
    w.putU8(kFrameVersion);
    w.putU8(4);
    w.putU32(static_cast<std::uint32_t>(body.size()));
    w.putU64(checksum64(body.data(), body.size()));
    w.putBytes(body.data(), body.size());

    Frame frame;
    std::size_t consumed = 1;
    EXPECT_EQ(decodeFrame(wire.data(), wire.size(), &frame, &consumed),
              DecodeStatus::kBadPayload);
    EXPECT_EQ(consumed, 0u);
}

TEST(FrameTest, RejectsCorruption)
{
    TraceRegionBatchMsg msg;
    msg.node = 1;
    msg.chunk = {10, 20, 30, 40};
    std::vector<std::uint8_t> wire = encodeFrame(msg);

    Frame frame;
    std::size_t consumed = 1;

    // Truncation at every length below the full frame.
    for (std::size_t len = 0; len < wire.size(); ++len)
        EXPECT_EQ(decodeFrame(wire.data(), len, &frame, &consumed),
                  DecodeStatus::kTruncated)
            << "at length " << len;

    // A flipped payload byte fails the checksum.
    std::vector<std::uint8_t> bad = wire;
    bad[kFrameHeaderBytes + 1] ^= 0x40;
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &frame, &consumed),
              DecodeStatus::kBadChecksum);

    // Magic / version are checked before anything else.
    bad = wire;
    bad[0] ^= 0xff;
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &frame, &consumed),
              DecodeStatus::kBadMagic);
    bad = wire;
    bad[4] += 1;
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &frame, &consumed),
              DecodeStatus::kBadVersion);
}

TEST(FrameTest, VersionOneFrameIsBadVersion)
{
    // Version 1 checked payloads with FNV-1a; no reader for it is
    // kept, so such a frame fails before its checksum is looked at.
    AckMsg ack;
    ack.node = 3;
    ack.batch_seq = 7;
    std::vector<std::uint8_t> wire = encodeFrame(ack);
    ASSERT_EQ(wire[4], kFrameVersion);
    wire[4] = 1;
    Frame frame;
    std::size_t consumed = 1;
    EXPECT_EQ(decodeFrame(wire.data(), wire.size(), &frame, &consumed),
              DecodeStatus::kBadVersion);
    EXPECT_EQ(consumed, 0u);
}

TEST(FrameTest, ConcatenatedFramesParseSequentially)
{
    BehaviorReportMsg rep;
    rep.node = 2;
    std::vector<std::uint8_t> wire = encodeFrame(rep);
    AckMsg ack;
    ack.node = 2;
    ack.stream = 1;
    std::vector<std::uint8_t> second = encodeFrame(ack);
    wire.insert(wire.end(), second.begin(), second.end());

    Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(decodeFrame(wire.data(), wire.size(), &frame, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(frame.type, MsgType::kBehaviorReport);
    ASSERT_EQ(decodeFrame(wire.data() + consumed,
                          wire.size() - consumed, &frame, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(frame.type, MsgType::kAck);
}

/** Run one scripted exchange; returns (wire log text, stats). */
std::pair<std::string, FabricStats>
runScriptedFabric(const NetSpec &spec, std::uint64_t seed)
{
    EventQueue q;
    Fabric fabric(&q, spec, seed);
    std::vector<std::vector<std::uint8_t>> received;
    fabric.attach(1, [](NodeId, const std::vector<std::uint8_t> &) {});
    fabric.attach(2, [&received](NodeId,
                                 const std::vector<std::uint8_t> &b) {
        received.push_back(b);
    });
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        std::vector<std::uint8_t> frame(32 + rng.next() % 512);
        for (std::uint8_t &byte : frame)
            byte = static_cast<std::uint8_t>(rng.next());
        fabric.send(1, 2, std::move(frame));
    }
    q.run();
    return {fabric.wireLogText(), fabric.stats()};
}

TEST(FabricTest, DeliversInOrderWithoutFaults)
{
    EventQueue q;
    NetSpec spec;
    spec.enabled = true;
    spec.jitter_us = 0;
    Fabric fabric(&q, spec, 1);
    std::vector<int> order;
    fabric.attach(1, [](NodeId, const std::vector<std::uint8_t> &) {});
    fabric.attach(2,
                  [&order](NodeId, const std::vector<std::uint8_t> &b) {
                      order.push_back(b[0]);
                  });
    for (int i = 0; i < 5; ++i)
        fabric.send(1, 2, {static_cast<std::uint8_t>(i)});
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(fabric.stats().frames_delivered, 5u);
    EXPECT_EQ(fabric.stats().frames_dropped, 0u);
}

TEST(FabricTest, LatencyRespectsLinkAndSerialization)
{
    EventQueue q;
    NetSpec spec;
    spec.enabled = true;
    spec.jitter_us = 0;
    spec.link_latency_us = 100;
    spec.bandwidth_gbps = 1;  // 1000 bytes take 8 us on the wire
    Fabric fabric(&q, spec, 1);
    Cycles delivered_at = 0;
    fabric.attach(1, [](NodeId, const std::vector<std::uint8_t> &) {});
    fabric.attach(2, [&q, &delivered_at](
                         NodeId, const std::vector<std::uint8_t> &) {
        delivered_at = q.now();
    });
    fabric.send(1, 2, std::vector<std::uint8_t>(1000));
    q.run();
    EXPECT_EQ(delivered_at, usToCycles(8.0) + usToCycles(100.0));
}

TEST(FabricTest, DropRateDropsRoughlyThatFraction)
{
    NetSpec spec;
    spec.enabled = true;
    spec.drop_rate = 0.3;
    auto [log, stats] = runScriptedFabric(spec, 42);
    EXPECT_EQ(stats.frames_sent, 200u);
    EXPECT_EQ(stats.frames_delivered + stats.frames_dropped, 200u);
    EXPECT_GT(stats.frames_dropped, 30u);
    EXPECT_LT(stats.frames_dropped, 100u);
}

TEST(FabricTest, DuplicatesDeliverTwice)
{
    NetSpec spec;
    spec.enabled = true;
    spec.duplicate_rate = 0.5;
    auto [log, stats] = runScriptedFabric(spec, 43);
    EXPECT_GT(stats.frames_duplicated, 50u);
    EXPECT_EQ(stats.frames_delivered,
              200u + stats.frames_duplicated);
}

TEST(FabricTest, ReorderingChangesDeliveryOrder)
{
    EventQueue q;
    NetSpec spec;
    spec.enabled = true;
    spec.jitter_us = 0;
    spec.reorder_rate = 0.5;
    spec.reorder_window_us = 500;
    Fabric fabric(&q, spec, 7);
    std::vector<int> order;
    fabric.attach(1, [](NodeId, const std::vector<std::uint8_t> &) {});
    fabric.attach(2,
                  [&order](NodeId, const std::vector<std::uint8_t> &b) {
                      order.push_back(b[0]);
                  });
    for (int i = 0; i < 50; ++i)
        fabric.send(1, 2, {static_cast<std::uint8_t>(i)});
    q.run();
    ASSERT_EQ(order.size(), 50u);
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_NE(order, sorted);  // something was overtaken
    EXPECT_GT(fabric.stats().frames_reordered, 5u);
}

TEST(FabricTest, LinkSeedIsOrderIndependent)
{
    // The stream for (seed, src, dst) must not depend on creation
    // order or direction.
    EXPECT_NE(Fabric::linkSeed(1, 2, 3), Fabric::linkSeed(1, 3, 2));
    EXPECT_NE(Fabric::linkSeed(1, 2, 3), Fabric::linkSeed(2, 2, 3));
    EXPECT_EQ(Fabric::linkSeed(9, 4, 5), Fabric::linkSeed(9, 4, 5));
}

TEST(FabricTest, WireLogIsIdenticalAcrossRunsAtSameSeed)
{
    // The determinism regression of ISSUE 6: all fault and jitter
    // decisions come from per-link seeded streams, so two runs at one
    // seed produce byte-identical wire-level event logs.
    NetSpec spec;
    spec.enabled = true;
    spec.drop_rate = 0.1;
    spec.reorder_rate = 0.2;
    spec.duplicate_rate = 0.05;
    spec.record_wire_log = true;
    auto [log_a, stats_a] = runScriptedFabric(spec, 1234);
    auto [log_b, stats_b] = runScriptedFabric(spec, 1234);
    EXPECT_FALSE(log_a.empty());
    EXPECT_EQ(log_a, log_b);
    EXPECT_EQ(stats_a.delivery_us, stats_b.delivery_us);

    auto [log_c, stats_c] = runScriptedFabric(spec, 1235);
    EXPECT_NE(log_a, log_c);  // the seed actually matters
}

}  // namespace
}  // namespace exist::net
