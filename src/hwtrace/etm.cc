#include "hwtrace/etm.h"

#include "hwtrace/packet_writer.h"
#include "hwtrace/topa.h"
#include "util/logging.h"

namespace exist::etm {

void
EtmPacketWriter::reset(Cycles now)
{
    atom_bits_ = 0;
    atom_count_ = 0;
    last_addr_ = 0;
    last_cyc_ = now;
    bytes_since_sync_ = 0;
    in_sync_ = false;
}

void
EtmPacketWriter::emit(const std::uint8_t *bytes, std::size_t n)
{
    out_->insert(out_->end(), bytes, bytes + n);
    bytes_since_sync_ += n;
}

void
EtmPacketWriter::cycleCount(Cycles now)
{
    std::uint64_t delta = now - last_cyc_;
    last_cyc_ = now;
    std::uint8_t buf[1 + 10];
    buf[0] = static_cast<std::uint8_t>(EtmOp::kCycleCount);
    std::size_t i = 1;
    do {
        std::uint8_t b = delta & 0x7f;
        delta >>= 7;
        if (delta)
            b |= 0x80;
        buf[i++] = b;
    } while (delta);
    emit(buf, i);
}

void
EtmPacketWriter::maybeSync(Cycles now)
{
    if (in_sync_ || bytes_since_sync_ < kSyncPeriodBytes)
        return;
    in_sync_ = true;
    flushAtoms(now);
    std::uint8_t sync[kAsyncPadBytes + 1] = {};
    sync[kAsyncPadBytes] =
        static_cast<std::uint8_t>(EtmOp::kAsyncTerm);
    emit(sync, sizeof(sync));
    std::uint8_t info[2] = {
        static_cast<std::uint8_t>(EtmOp::kTraceInfo), 0x01};
    emit(info, sizeof(info));
    std::uint8_t ts[8];
    ts[0] = static_cast<std::uint8_t>(EtmOp::kTimestamp);
    for (int i = 0; i < 7; ++i)
        ts[1 + i] = static_cast<std::uint8_t>(now >> (8 * i));
    emit(ts, sizeof(ts));
    // Reset the address-compression base across the sync point (both
    // sides do; the next Address packet then carries enough bytes to
    // stand alone). Unlike the IPT PSB's FUP, no flow re-anchor is
    // emitted: a decoder of a contiguous ETM stream keeps its state,
    // and a mid-stream entrant waits for the next Address packet.
    last_addr_ = 0;
    bytes_since_sync_ = 0;
    in_sync_ = false;
}

void
EtmPacketWriter::emitAddress(EtmOp kind, std::uint64_t ip)
{
    // ETM-style compression: short (2-byte) / mid (4-byte) deltas
    // against the last emitted address, or the full 8 bytes.
    std::uint64_t diff = ip ^ last_addr_;
    EtmOp op;
    int len;
    if ((diff >> 16) == 0) {
        op = EtmOp::kAddrShort;
        len = 2;
    } else if ((diff >> 32) == 0) {
        op = EtmOp::kAddrMid;
        len = 4;
    } else {
        op = EtmOp::kAddrLong;
        len = 8;
    }
    std::uint8_t buf[2 + 8];
    std::size_t i = 0;
    if (kind == EtmOp::kTraceOn)
        buf[i++] = static_cast<std::uint8_t>(EtmOp::kTraceOn);
    buf[i++] = static_cast<std::uint8_t>(op);
    for (int b = 0; b < len; ++b)
        buf[i++] = static_cast<std::uint8_t>(ip >> (8 * b));
    emit(buf, i);
    last_addr_ = ip;
}

void
EtmPacketWriter::atom(bool taken, Cycles now)
{
    maybeSync(now);
    atom_bits_ |= static_cast<std::uint8_t>(taken ? 1 : 0)
                  << atom_count_;
    ++atom_count_;
    if (atom_count_ == 8)
        flushAtoms(now);
}

void
EtmPacketWriter::flushAtoms(Cycles now)
{
    if (atom_count_ == 0)
        return;
    cycleCount(now);
    std::uint8_t buf[2];
    buf[0] = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(EtmOp::kAtom) |
        static_cast<std::uint8_t>(atom_count_ - 1));
    buf[1] = atom_bits_;
    emit(buf, 2);
    ++atom_packets_;
    atom_bits_ = 0;
    atom_count_ = 0;
}

void
EtmPacketWriter::address(std::uint64_t ip, Cycles now)
{
    maybeSync(now);
    // Atoms describe branches before this transfer; ETM keeps strict
    // stream order, so flush them first (unlike IPT's deferred TNT).
    flushAtoms(now);
    cycleCount(now);
    emitAddress(EtmOp::kAddrLong /*plain*/, ip);
    current_ip_ = ip;
}

void
EtmPacketWriter::traceOn(std::uint64_t ip, Cycles now)
{
    maybeSync(now);
    cycleCount(now);
    emitAddress(EtmOp::kTraceOn, ip);
    current_ip_ = ip;
}

void
EtmPacketWriter::traceOff(Cycles now)
{
    flushAtoms(now);
    cycleCount(now);
    std::uint8_t b = static_cast<std::uint8_t>(EtmOp::kTraceOff);
    emit(&b, 1);
}

void
EtmPacketWriter::context(std::uint32_t ctx)
{
    std::uint8_t buf[5];
    buf[0] = static_cast<std::uint8_t>(EtmOp::kContext);
    for (int i = 0; i < 4; ++i)
        buf[1 + i] = static_cast<std::uint8_t>(ctx >> (8 * i));
    emit(buf, sizeof(buf));
}

std::vector<std::uint8_t>
transcodeToCommon(const std::vector<std::uint8_t> &etm,
                  std::size_t *errors)
{
    // Lower into the common (IPT-style) vocabulary by re-emitting
    // through the shared PacketWriter into an amply-sized buffer.
    TopaBuffer sink;
    sink.configure(
        {TopaEntry{etm.size() * 2 + 65536, false, false}}, true);
    PacketWriter writer(&sink);
    writer.setTscEnabled(true);
    writer.setCycEnabled(true);
    writer.resetState(0);

    std::size_t bad = 0;
    std::size_t pos = 0;
    std::uint64_t last_addr = 0;
    Cycles now = 0;
    bool pending_trace_on = false;

    auto have = [&](std::size_t n) { return pos + n <= etm.size(); };
    auto read_le = [&](std::size_t n) {
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < n; ++i)
            v |= static_cast<std::uint64_t>(etm[pos + i]) << (8 * i);
        pos += n;
        return v;
    };
    auto read_addr = [&](std::uint8_t header) -> std::uint64_t {
        std::size_t len = header ==
                                  static_cast<std::uint8_t>(
                                      EtmOp::kAddrShort)
                              ? 2
                              : header == static_cast<std::uint8_t>(
                                              EtmOp::kAddrMid)
                                    ? 4
                                    : 8;
        if (!have(len)) {
            pos = etm.size();
            return last_addr;
        }
        std::uint64_t low = read_le(len);
        std::uint64_t mask =
            len >= 8 ? ~0ull : ((1ull << (8 * len)) - 1);
        last_addr = (last_addr & ~mask) | (low & mask);
        return last_addr;
    };

    while (pos < etm.size()) {
        std::uint8_t b = etm[pos];

        if ((b & 0xf8) == static_cast<std::uint8_t>(EtmOp::kAtom)) {
            if (!have(2)) {
                ++bad;
                break;
            }
            int count = (b & 0x07) + 1;
            std::uint8_t bits = etm[pos + 1];
            pos += 2;
            for (int i = 0; i < count; ++i)
                writer.tnt((bits >> i) & 1, now);
            continue;
        }

        switch (static_cast<EtmOp>(b)) {
          case EtmOp::kPad:
            ++pos;  // part of an A-Sync run
            continue;
          case EtmOp::kAsyncTerm:
            ++pos;
            // Sync point: both sides reset address compression.
            last_addr = 0;
            continue;
          case EtmOp::kTraceInfo:
            pos += 2;
            continue;
          case EtmOp::kTimestamp:
            if (!have(8)) {
                ++bad;
                pos = etm.size();
                break;
            }
            ++pos;
            now = read_le(7);
            continue;
          case EtmOp::kCycleCount: {
            ++pos;
            std::uint64_t v = 0;
            int shift = 0;
            while (pos < etm.size()) {
                std::uint8_t byte = etm[pos++];
                v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
                shift += 7;
                if (!(byte & 0x80))
                    break;
            }
            now += v;
            continue;
          }
          case EtmOp::kTraceOn:
            ++pos;
            pending_trace_on = true;
            continue;
          case EtmOp::kTraceOff:
            ++pos;
            writer.flushTnt(now);
            writer.pgd(now);
            continue;
          case EtmOp::kContext:
            if (!have(5)) {
                ++bad;
                pos = etm.size();
                break;
            }
            ++pos;
            writer.pip(read_le(4));
            continue;
          case EtmOp::kAddrShort:
          case EtmOp::kAddrMid:
          case EtmOp::kAddrLong: {
            ++pos;
            std::uint64_t addr = read_addr(b);
            if (pending_trace_on) {
                writer.pge(addr, now);
                pending_trace_on = false;
            } else {
                writer.tip(addr, now);
            }
            writer.setCurrentIp(addr);
            continue;
          }
          default:
            ++bad;
            ++pos;
            continue;
        }
    }
    writer.flushTnt(now);

    if (errors != nullptr)
        *errors = bad;
    const auto &data = sink.data();
    return std::vector<std::uint8_t>(
        data.begin(),
        data.begin() + static_cast<std::ptrdiff_t>(
                           sink.bytesAccepted()));
}

}  // namespace exist::etm
