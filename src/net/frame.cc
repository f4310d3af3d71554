#include "net/frame.h"

#include "net/wire.h"

namespace exist::net {

namespace {

/** Offsets of the header slots seal() patches once the body is in. */
constexpr std::size_t kLengthAt = 4 + 1 + 1;
constexpr std::size_t kCheckAt = kLengthAt + 4;
/** A body's fixed fields: five varints of at most ten bytes each. A
 *  batch's chunk grows the buffer once more, copying only these. */
constexpr std::size_t kBodyFieldsBytes = 5 * 10;

/**
 * One frame, serialized once: the envelope header with its length and
 * check slots zeroed, `put_body` writing the message body in place
 * behind it, then both slots patched.
 */
template <typename PutBody>
std::vector<std::uint8_t>
seal(MsgType type, PutBody &&put_body)
{
    std::vector<std::uint8_t> out;
    out.reserve(kFrameHeaderBytes + kBodyFieldsBytes);
    ByteWriter w(&out);
    w.putU32(kFrameMagic);
    w.putU8(kFrameVersion);
    w.putU8(static_cast<std::uint8_t>(type));
    w.putU32(0);  // length, patched below
    w.putU64(0);  // check, patched below
    put_body(w);
    w.patchU32(kLengthAt,
               static_cast<std::uint32_t>(out.size() - kFrameHeaderBytes));
    w.patchU64(kCheckAt, w.checksumFrom(kFrameHeaderBytes));
    return out;
}

bool
parseBatch(ByteReader &r, TraceRegionBatchMsg *msg)
{
    msg->node = static_cast<NodeId>(r.getSVarint());
    msg->stream = r.getVarint();
    msg->batch_seq = r.getVarint();
    msg->total_batches = r.getVarint();
    std::uint64_t n = r.getVarint();
    if (!r.ok() || n != r.remaining())
        return false;
    const std::uint8_t *p = r.getBytes(n);
    if (p == nullptr)
        return false;
    msg->chunk.assign(p, p + n);
    return true;
}

bool
parseReport(ByteReader &r, BehaviorReportMsg *msg)
{
    msg->node = static_cast<NodeId>(r.getSVarint());
    msg->stream = r.getVarint();
    msg->degraded = r.getU8() != 0;
    msg->batches_spilled = r.getVarint();
    msg->summary = r.getString();
    return r.ok() && r.remaining() == 0;
}

bool
parseAck(ByteReader &r, AckMsg *msg)
{
    msg->node = static_cast<NodeId>(r.getSVarint());
    msg->stream = r.getVarint();
    msg->batch_seq = r.getVarint();
    msg->cumulative = r.getVarint();
    msg->window = static_cast<std::uint32_t>(r.getVarint());
    return r.ok() && r.remaining() == 0;
}

}  // namespace

const char *
decodeStatusName(DecodeStatus s)
{
    switch (s) {
      case DecodeStatus::kOk: return "ok";
      case DecodeStatus::kTruncated: return "truncated";
      case DecodeStatus::kBadMagic: return "bad-magic";
      case DecodeStatus::kBadVersion: return "bad-version";
      case DecodeStatus::kBadLength: return "bad-length";
      case DecodeStatus::kBadChecksum: return "bad-checksum";
      case DecodeStatus::kBadPayload: return "bad-payload";
    }
    return "?";
}

std::vector<std::uint8_t>
encodeFrame(const TraceRegionBatchMsg &msg)
{
    return seal(MsgType::kTraceRegionBatch, [&](ByteWriter &w) {
        w.putSVarint(msg.node);
        w.putVarint(msg.stream);
        w.putVarint(msg.batch_seq);
        w.putVarint(msg.total_batches);
        w.putVarint(msg.chunk.size());
        w.putBytes(msg.chunk.data(), msg.chunk.size());
    });
}

std::vector<std::uint8_t>
encodeFrame(const BehaviorReportMsg &msg)
{
    return seal(MsgType::kBehaviorReport, [&](ByteWriter &w) {
        w.putSVarint(msg.node);
        w.putVarint(msg.stream);
        w.putU8(msg.degraded ? 1 : 0);
        w.putVarint(msg.batches_spilled);
        w.putString(msg.summary);
    });
}

std::vector<std::uint8_t>
encodeFrame(const AckMsg &msg)
{
    return seal(MsgType::kAck, [&](ByteWriter &w) {
        w.putSVarint(msg.node);
        w.putVarint(msg.stream);
        w.putVarint(msg.batch_seq);
        w.putVarint(msg.cumulative);
        w.putVarint(msg.window);
    });
}

DecodeStatus
decodeFrame(const std::uint8_t *data, std::size_t size, Frame *frame,
            std::size_t *consumed)
{
    *consumed = 0;
    if (size < kFrameHeaderBytes)
        return DecodeStatus::kTruncated;
    ByteReader header(data, kFrameHeaderBytes);
    if (header.getU32() != kFrameMagic)
        return DecodeStatus::kBadMagic;
    if (header.getU8() != kFrameVersion)
        return DecodeStatus::kBadVersion;
    std::uint8_t type = header.getU8();
    std::uint32_t length = header.getU32();
    std::uint64_t check = header.getU64();
    if (length > kMaxFramePayload)
        return DecodeStatus::kBadLength;
    if (size - kFrameHeaderBytes < length)
        return DecodeStatus::kTruncated;
    const std::uint8_t *payload = data + kFrameHeaderBytes;
    if (checksum64(payload, length) != check)
        return DecodeStatus::kBadChecksum;

    ByteReader body(payload, length);
    bool ok = false;
    switch (static_cast<MsgType>(type)) {
      case MsgType::kTraceRegionBatch:
        frame->type = MsgType::kTraceRegionBatch;
        ok = parseBatch(body, &frame->batch);
        break;
      case MsgType::kBehaviorReport:
        frame->type = MsgType::kBehaviorReport;
        ok = parseReport(body, &frame->report);
        break;
      case MsgType::kAck:
        frame->type = MsgType::kAck;
        ok = parseAck(body, &frame->ack);
        break;
      default:
        return DecodeStatus::kBadPayload;
    }
    if (!ok)
        return DecodeStatus::kBadPayload;
    *consumed = kFrameHeaderBytes + length;
    return DecodeStatus::kOk;
}

}  // namespace exist::net
