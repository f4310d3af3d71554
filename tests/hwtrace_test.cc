/**
 * @file
 * Tests for the hardware-tracer model: MSR legality rules, ToPA
 * semantics (STOP, ring, PMI, drain), packet writer state machines and
 * the tracer's PacketEn filter transitions.
 */
#include <gtest/gtest.h>

#include "decode/flow_reconstructor.h"
#include "decode/packet_parser.h"
#include "hwtrace/msr.h"
#include "hwtrace/packet_writer.h"
#include "hwtrace/topa.h"
#include "hwtrace/tracer.h"
#include "workload/execution.h"

namespace exist {
namespace {

TEST(Msr, ConfigWhileEnabledFaults)
{
    MsrFile msrs;
    ASSERT_TRUE(msrs.write(RtitMsr::kCtl, rtit_ctl::kTraceEn).ok);
    // Changing CR3Match with TraceEn=1 is architecturally illegal.
    EXPECT_FALSE(msrs.write(RtitMsr::kCr3Match, 0x1234).ok);
    EXPECT_FALSE(msrs.write(RtitMsr::kOutputBase, 0x1000).ok);
    // Changing CTL bits other than TraceEn is illegal too.
    EXPECT_FALSE(
        msrs.write(RtitMsr::kCtl,
                   rtit_ctl::kTraceEn | rtit_ctl::kBranchEn)
            .ok);
    // Clearing TraceEn alone is fine.
    EXPECT_TRUE(msrs.write(RtitMsr::kCtl, 0).ok);
    EXPECT_TRUE(msrs.write(RtitMsr::kCr3Match, 0x1234).ok);
    EXPECT_EQ(msrs.cr3Match(), 0x1234u);
}

TEST(Msr, AccessesHaveCosts)
{
    MsrFile msrs;
    auto w = msrs.write(RtitMsr::kCr3Match, 1);
    EXPECT_GT(w.cost, 0u);
    std::uint64_t v;
    auto r = msrs.readCosted(RtitMsr::kCr3Match, v);
    EXPECT_EQ(v, 1u);
    EXPECT_GT(r.cost, 0u);
    EXPECT_LT(r.cost, w.cost);
    EXPECT_EQ(msrs.writeCount(), 1u);
}

TEST(Topa, StopSemanticsDropExcess)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{16, /*stop=*/true, false}}, false);
    std::uint8_t data[24] = {0};
    TopaWriteResult r = buf.write(data, 24);
    EXPECT_EQ(r.accepted, 16u);
    EXPECT_EQ(r.dropped, 8u);
    EXPECT_TRUE(r.stopped_now);
    EXPECT_TRUE(buf.stopped());
    // Further writes are fully dropped.
    r = buf.write(data, 4);
    EXPECT_EQ(r.accepted, 0u);
    EXPECT_EQ(r.dropped, 4u);
    EXPECT_EQ(buf.bytesAccepted(), 16u);
    EXPECT_EQ(buf.bytesDropped(), 12u);
}

TEST(Topa, MultiRegionChain)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{8, false, false},
                   TopaEntry{8, false, true},
                   TopaEntry{8, true, false}},
                  false);
    EXPECT_EQ(buf.capacity(), 24u);
    std::uint8_t data[32];
    for (int i = 0; i < 32; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    TopaWriteResult r = buf.write(data, 32);
    EXPECT_EQ(r.accepted, 24u);
    EXPECT_EQ(r.pmis_fired, 1);  // the INT region filled
    EXPECT_TRUE(buf.stopped());
    EXPECT_EQ(buf.data()[23], 23);
}

TEST(Topa, RingWrapsAndDrainsOldestFirst)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{8, false, false}}, /*ring=*/true);
    std::uint8_t data[12];
    for (int i = 0; i < 12; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    buf.write(data, 12);  // wraps once, overwriting bytes 0..3
    EXPECT_EQ(buf.wraps(), 1u);
    EXPECT_FALSE(buf.stopped());
    std::vector<std::uint8_t> out;
    std::uint64_t n = buf.drainTo(out);
    EXPECT_EQ(n, 8u);
    // Oldest-first: bytes 4..7 then 8..11.
    EXPECT_EQ(out[0], 4);
    EXPECT_EQ(out[7], 11);
}

TEST(Topa, DrainPreservesCumulativeCounters)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{64, false, true}}, true);
    std::uint8_t data[40] = {1};
    buf.write(data, 40);
    std::vector<std::uint8_t> out;
    buf.drainTo(out);
    buf.write(data, 40);
    EXPECT_EQ(buf.bytesAccepted(), 80u);
}

TEST(Topa, PartialDrainsAroundStopBoundary)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{8, /*stop=*/true, false}}, false);
    std::uint8_t data[16];
    for (int i = 0; i < 16; ++i)
        data[i] = static_cast<std::uint8_t>(i);

    // Partial fill, drain before the STOP boundary is reached.
    buf.write(data, 5);
    std::vector<std::uint8_t> out;
    EXPECT_EQ(buf.drainTo(out), 5u);
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[4], 4);
    EXPECT_FALSE(buf.stopped());

    // The drain re-arms the chain: the next write crosses the STOP
    // boundary exactly at capacity.
    TopaWriteResult r = buf.write(data + 5, 10);
    EXPECT_EQ(r.accepted, 8u);
    EXPECT_EQ(r.dropped, 2u);
    EXPECT_TRUE(r.stopped_now);
    EXPECT_TRUE(buf.stopped());
    EXPECT_EQ(buf.drainTo(out), 8u);
    ASSERT_EQ(out.size(), 13u);
    // Concatenated drains reproduce the accepted prefix of the input.
    for (int i = 0; i < 13; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
    // Cumulative counters survive both drains.
    EXPECT_EQ(buf.bytesAccepted(), 13u);
    EXPECT_EQ(buf.bytesDropped(), 2u);
}

TEST(Topa, DrainAfterWrapDoesNotReplayStaleData)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{8, false, false}}, /*ring=*/true);
    std::uint8_t data[16];
    for (int i = 0; i < 16; ++i)
        data[i] = static_cast<std::uint8_t>(i);

    buf.write(data, 12);  // wraps once
    std::vector<std::uint8_t> out;
    EXPECT_EQ(buf.drainTo(out), 8u);
    EXPECT_EQ(out[0], 4);

    // Only 4 fresh bytes since the drain: the drain layout must use
    // the wraps-since-last-drain epoch, not the cumulative count, or
    // it would hand back 8 bytes including a stale replay of the
    // previous epoch's data.
    buf.write(data + 12, 4);
    out.clear();
    EXPECT_EQ(buf.drainTo(out), 4u);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 12);
    EXPECT_EQ(out[3], 15);
    // The cumulative wrap statistic still counts the first epoch.
    EXPECT_EQ(buf.wraps(), 1u);
    EXPECT_FALSE(buf.hasWrapped());
}

TEST(PacketWriter, TntPacksSixPerByte)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{4096, true, false}}, false);
    PacketWriter writer(&buf);
    writer.setCycEnabled(false);
    writer.setTscEnabled(false);
    writer.resetState(0);
    for (int i = 0; i < 12; ++i)
        writer.tnt(i % 2 == 0, 10 * i);
    EXPECT_EQ(writer.stats().tnt_packets, 2u);
    EXPECT_EQ(writer.stats().tnt_bits, 12u);
    EXPECT_EQ(buf.bytesAccepted(), 2u);  // one byte per 6 outcomes

    // A partial group flushes as the 2-byte form.
    writer.tnt(true, 130);
    writer.flushTnt(140);
    EXPECT_EQ(writer.stats().tnt_packets, 3u);
    EXPECT_EQ(buf.bytesAccepted(), 4u);
}

TEST(PacketWriter, RoundTripThroughParser)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{1 << 16, true, false}}, false);
    PacketWriter writer(&buf);
    writer.resetState(100);
    writer.pge(0x401000, 100);
    for (int i = 0; i < 6; ++i)
        writer.tnt(i & 1, 110 + static_cast<Cycles>(i));
    writer.tip(0x402345, 130);
    writer.tip(0x402349, 140);  // 2-byte compressed
    writer.pip(0xdeadb);
    writer.pgd(150);

    PacketParser parser(buf.data().data(), buf.bytesAccepted());
    Packet pkt;
    std::vector<PacketOp> ops;
    std::vector<std::uint64_t> values;
    while (parser.next(pkt)) {
        ops.push_back(pkt.op);
        values.push_back(pkt.value);
    }
    // CYC packets interleave; filter to the structural ones.
    std::vector<std::pair<PacketOp, std::uint64_t>> structural;
    for (std::size_t i = 0; i < ops.size(); ++i)
        if (ops[i] != PacketOp::kCyc && ops[i] != PacketOp::kTsc)
            structural.emplace_back(ops[i], values[i]);

    ASSERT_GE(structural.size(), 5u);
    EXPECT_EQ(structural[0].first, PacketOp::kTipPge);
    EXPECT_EQ(structural[0].second, 0x401000u);
    EXPECT_EQ(structural[1].first, PacketOp::kTnt6);
    EXPECT_EQ(structural[2].first, PacketOp::kTip);
    EXPECT_EQ(structural[2].second, 0x402345u);
    EXPECT_EQ(structural[3].first, PacketOp::kTip);
    EXPECT_EQ(structural[3].second, 0x402349u);
    EXPECT_EQ(structural[4].first, PacketOp::kPip);
    EXPECT_EQ(structural[4].second, 0xdeadbu);
    EXPECT_EQ(structural[5].first, PacketOp::kTipPgd);
}

TEST(PacketWriter, CycDeltasAccumulateTime)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{1 << 16, true, false}}, false);
    PacketWriter writer(&buf);
    writer.setTscEnabled(false);
    writer.resetState(1000);
    writer.tip(0x400000, 1250);
    writer.tip(0x400100, 1900);

    PacketParser parser(buf.data().data(), buf.bytesAccepted());
    Packet pkt;
    Cycles t = 1000;
    while (parser.next(pkt))
        if (pkt.op == PacketOp::kCyc)
            t += pkt.value;
    EXPECT_EQ(t, 1900u);
}

TEST(PacketWriter, PsbCadenceAndResync)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{1 << 20, true, false}}, false);
    PacketWriter writer(&buf);
    writer.resetState(0);
    writer.pge(0x400000, 0);
    for (Cycles i = 0; i < 30000; ++i)
        writer.tnt(i % 3 == 0, i);
    EXPECT_GE(writer.stats().psb_packets, 1u);

    // A parser starting mid-stream can resync at a PSB.
    PacketParser parser(buf.data().data() + 3,
                        buf.bytesAccepted() - 3);
    ASSERT_TRUE(parser.resyncToPsb());
    Packet pkt;
    int parsed = 0;
    while (parser.next(pkt))
        ++parsed;
    EXPECT_GT(parsed, 100);
}

TEST(Tracer, PacketEnFollowsCr3Filter)
{
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.cr3_filter = true;
    cfg.cr3_match = 0xaaa;
    cfg.topa = {TopaEntry{1 << 16, true, false}};
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(tracer.enable(0, 0xbbb, 0x400000).ok);
    EXPECT_TRUE(tracer.enabled());
    EXPECT_FALSE(tracer.packetEn());  // wrong process

    tracer.onContextSwitch(0xaaa, 0x400000, 10);
    EXPECT_TRUE(tracer.packetEn());  // matched: PGE emitted
    EXPECT_EQ(tracer.packetStats().pge_packets, 1u);

    tracer.onContextSwitch(0xccc, 0x500000, 20);
    EXPECT_FALSE(tracer.packetEn());  // PGD emitted
    EXPECT_EQ(tracer.packetStats().pgd_packets, 1u);
}

TEST(Tracer, SyscallPausesUserTracing)
{
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.topa = {TopaEntry{1 << 16, true, false}};
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(tracer.enable(0, 0x1, 0x400000).ok);
    ASSERT_TRUE(tracer.packetEn());
    tracer.onSyscallEntry(50);
    EXPECT_FALSE(tracer.packetEn());
    tracer.onUserResume(0x1, 0x400400, 80);
    EXPECT_TRUE(tracer.packetEn());
}

TEST(Tracer, StopOnFullSetsStatus)
{
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("ex"), 2);
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.topa = {TopaEntry{256, true, false}};  // tiny: fills fast
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(
        tracer.enable(0, 0x1, prog.block(prog.entryBlock()).address)
            .ok);
    ExecutionContext exec(&prog, 3);
    for (Cycles i = 0; i < 5000 && !tracer.stopped(); ++i) {
        StepResult s = exec.step();
        tracer.onBranch(s.branch, prog, i * 10, 0x1, true);
    }
    EXPECT_TRUE(tracer.stopped());
    EXPECT_FALSE(tracer.packetEn());
    EXPECT_GT(tracer.realBytesDropped(), 0u);
}

TEST(Tracer, ConfigureWhileEnabledFails)
{
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.topa = {TopaEntry{4096, true, false}};
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(tracer.enable(0, 0, 0x400000).ok);
    EXPECT_FALSE(tracer.configure(cfg).ok);
    ASSERT_TRUE(tracer.disable(10).ok);
    EXPECT_TRUE(tracer.configure(cfg).ok);
}

TEST(Tracer, ExternalOutputIsUsed)
{
    TopaBuffer external;
    external.configure({TopaEntry{1 << 16, false, false}}, true);
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.external_output = &external;
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(tracer.enable(0, 0, 0x400000).ok);
    EXPECT_EQ(&tracer.output(), &external);
    EXPECT_GT(external.bytesAccepted(), 0u);  // the PGE landed there
}

TEST(Tracer, PtWriteRoundTripsThroughDecode)
{
    // The SS6.1 data-flow enhancement: PTWRITE payloads interleave with
    // control flow and decode back in order with timestamps.
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("om"), 21);
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.topa = {TopaEntry{1 << 20, true, false}};
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ExecutionContext exec(&prog, 22);
    ASSERT_TRUE(
        tracer.enable(0, 0x1, prog.block(exec.currentBlock()).address)
            .ok);

    std::vector<std::uint64_t> written;
    Cycles now = 0;
    for (int i = 0; i < 5000; ++i) {
        StepResult s = exec.step();
        now += s.insns;
        tracer.onBranch(s.branch, prog, now, 0x1, true);
        if (i % 500 == 250) {
            std::uint64_t v = 0xfeed0000ull + static_cast<unsigned>(i);
            tracer.onPtWrite(v, now);
            written.push_back(v);
        }
    }
    tracer.disable(now);
    EXPECT_EQ(tracer.packetStats().ptw_packets, written.size());

    FlowReconstructor rec(&prog);
    DecodedTrace dt = rec.decode(tracer.output().data().data(),
                                 tracer.output().bytesAccepted());
    ASSERT_EQ(dt.ptwrites.size(), written.size());
    Cycles prev = 0;
    for (std::size_t i = 0; i < written.size(); ++i) {
        EXPECT_EQ(dt.ptwrites[i].second, written[i]);
        EXPECT_GE(dt.ptwrites[i].first, prev);
        prev = dt.ptwrites[i].first;
    }
    // Control flow is unaffected by interleaved data packets.
    EXPECT_EQ(dt.decode_errors, 0u);
    EXPECT_GT(dt.branches_decoded, 4900u);
}

TEST(Tracer, PtWriteIgnoredWhilePacketsDisabled)
{
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.cr3_filter = true;
    cfg.cr3_match = 0xaaa;
    cfg.topa = {TopaEntry{1 << 16, true, false}};
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(tracer.enable(0, 0xbbb, 0x400000).ok);  // no match
    ASSERT_FALSE(tracer.packetEn());
    tracer.onPtWrite(0x1234, 10);
    EXPECT_EQ(tracer.packetStats().ptw_packets, 0u);
}

}  // namespace
}  // namespace exist
