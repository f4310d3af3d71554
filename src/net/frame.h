/**
 * @file
 * The collection-plane wire protocol: a length-prefixed, checksummed
 * frame envelope carrying one of three message types —
 *
 *   TraceRegionBatch  node -> master: one sequenced chunk of a
 *                     serialized session payload (delta-encoded by
 *                     the payload layer above)
 *   BehaviorReport    node -> master: the stream finale — a compact
 *                     per-node behaviour summary; in degraded mode it
 *                     is what survives spill-and-summarize
 *   Ack               master -> node: selective ack for one batch,
 *                     plus the cumulative contiguous sequence and the
 *                     receive-window credit (the only flow control)
 *
 * Any other type byte (4 was a retired Heartbeat) fails decodeFrame()
 * as kBadPayload.
 *
 * Frame layout (little-endian):
 *
 *   magic   u32  'E''X''F''R'
 *   version u8   kFrameVersion (2; version 1 checked with FNV-1a and
 *                decodes as kBadVersion)
 *   type    u8   MsgType
 *   length  u32  payload byte count
 *   check   u64  checksum64 (XXH64, seed 0) over the payload bytes
 *   payload length bytes
 *
 * encodeFrame() serializes a frame once: the body is written in place
 * behind a header whose length and check are patched afterwards.
 *
 * decodeFrame() never over-reads: truncated input reports kTruncated,
 * a flipped payload byte reports kBadChecksum, and the caller always
 * learns how many bytes a valid frame consumed, so frames parse out
 * of a concatenated buffer too (tests/fuzz_test.cc drives all three
 * properties with random corruption).
 */
#ifndef EXIST_NET_FRAME_H
#define EXIST_NET_FRAME_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace exist::net {

enum class MsgType : std::uint8_t {
    kTraceRegionBatch = 1,
    kBehaviorReport = 2,
    kAck = 3,
};

inline constexpr std::uint32_t kFrameMagic = 0x52465845u;  // "EXFR"
inline constexpr std::uint8_t kFrameVersion = 2;
/** magic + version + type + length + checksum. */
inline constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 1 + 4 + 8;
/** Refuse absurd length prefixes before trusting them. */
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/** Ack sequence number standing for the BehaviorReport finale. */
inline constexpr std::uint64_t kFinaleSeq = ~std::uint64_t{0};

/** One sequenced chunk of a node's serialized session payload. */
struct TraceRegionBatchMsg {
    NodeId node = kInvalidId;
    std::uint64_t stream = 0;     ///< session stream id on this node
    std::uint64_t batch_seq = 0;  ///< 0-based position in the stream
    std::uint64_t total_batches = 0;
    std::vector<std::uint8_t> chunk;
};

/** Stream finale: behaviour summary (+ degradation accounting). */
struct BehaviorReportMsg {
    NodeId node = kInvalidId;
    std::uint64_t stream = 0;
    bool degraded = false;           ///< spill-and-summarize happened
    std::uint64_t batches_spilled = 0;
    std::string summary;
};

/** Master -> node: selective ack + window credit. */
struct AckMsg {
    NodeId node = kInvalidId;     ///< the acked node (frame addressee)
    std::uint64_t stream = 0;
    std::uint64_t batch_seq = 0;  ///< the batch (or kFinaleSeq) acked
    std::uint64_t cumulative = 0; ///< batches received contiguously
    std::uint32_t window = 0;     ///< extra batches master will buffer
};

/** A decoded frame: the envelope plus exactly one message body. */
struct Frame {
    MsgType type = MsgType::kTraceRegionBatch;
    TraceRegionBatchMsg batch;
    BehaviorReportMsg report;
    AckMsg ack;
};

enum class DecodeStatus {
    kOk,
    kTruncated,    ///< fewer bytes than header + length promise
    kBadMagic,
    kBadVersion,
    kBadLength,    ///< length prefix exceeds kMaxFramePayload
    kBadChecksum,  ///< payload bytes do not hash to the header check
    kBadPayload,   ///< checksum fine but the body fails to parse
};

const char *decodeStatusName(DecodeStatus s);

std::vector<std::uint8_t> encodeFrame(const TraceRegionBatchMsg &msg);
std::vector<std::uint8_t> encodeFrame(const BehaviorReportMsg &msg);
std::vector<std::uint8_t> encodeFrame(const AckMsg &msg);

/**
 * Decode one frame from the front of `data`. On kOk, `*frame` holds
 * the message and `*consumed` the envelope + payload byte count; on
 * any error `*consumed` is 0 and `*frame` is unspecified.
 */
DecodeStatus decodeFrame(const std::uint8_t *data, std::size_t size,
                         Frame *frame, std::size_t *consumed);

}  // namespace exist::net

#endif  // EXIST_NET_FRAME_H
