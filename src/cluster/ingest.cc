#include "cluster/ingest.h"

#include <algorithm>
#include <utility>

#include "obs/trace_plane.h"
#include "util/logging.h"

namespace exist {

namespace {

/** Must mint the same id as the agent side (trace_agent.cc batchCorr)
 *  so the flow link binds without any extra wire bytes. */
std::uint64_t
batchCorr(NodeId node, std::uint64_t stream, std::uint64_t seq)
{
    return obs::corrId(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(node)),
        stream, seq);
}

/** Clamp the collector's sentinel node id into the 16-bit obs field. */
std::uint32_t
obsNode(NodeId node)
{
    auto v = static_cast<std::uint64_t>(static_cast<std::int64_t>(node));
    return v >= 0xffff ? 0xffffu : static_cast<std::uint32_t>(v);
}

}  // namespace

Ingest::Ingest(EventQueue *queue, net::Fabric *fabric, NodeId node)
    : queue_(queue), fabric_(fabric), node_(node)
{
}

std::uint32_t
Ingest::windowFor(const Stream &s) const
{
    // The in-order batch is always consumable, so the window never
    // closes below 1 — a full hold buffer degrades the transfer to
    // stop-and-wait instead of livelocking it.
    std::size_t headroom = kIngestHeldBatches > s.held.size()
                               ? kIngestHeldBatches - s.held.size()
                               : 0;
    return static_cast<std::uint32_t>(1 + headroom);
}

bool
Ingest::streamComplete(const Stream &s) const
{
    // A degraded stream's spilled batches were never consumed, so
    // cumulative < total there; a finale-only (empty-payload) stream
    // has total == cumulative == 0 and is trivially complete.
    return s.finale && s.cumulative == s.total_batches;
}

void
Ingest::sendAck(NodeId dst, std::uint64_t stream,
                std::uint64_t batch_seq, const Stream &s)
{
    net::AckMsg ack;
    ack.node = dst;
    ack.stream = stream;
    ack.batch_seq = batch_seq;
    ack.cumulative = s.cumulative;
    ack.window = windowFor(s);
    fabric_->send(node_, dst, net::encodeFrame(ack));
    stats_.acks_sent += 1;
}

void
Ingest::onBatch(const net::TraceRegionBatchMsg &msg)
{
    Stream &s = streams_[{msg.node, msg.stream}];
    if (s.total_batches == 0)
        s.total_batches = msg.total_batches;

    // Idempotent consume: dedup by (node, stream, batch_seq). Already
    // consumed or already held => ack again (the first ack may have
    // been the lost frame) but never re-append.
    if (msg.batch_seq < s.cumulative ||
        s.held.count(msg.batch_seq) != 0) {
        stats_.batches_duplicate += 1;
        sendAck(msg.node, msg.stream, msg.batch_seq, s);
        return;
    }
    if (msg.batch_seq > s.cumulative &&
        msg.batch_seq - s.cumulative > kIngestHeldBatches) {
        // Outside the window we are willing to hold. Not acked: the
        // agent's retransmit timer retries it once the gap fills.
        stats_.batches_refused += 1;
        return;
    }

    stats_.batches_accepted += 1;
    if (msg.batch_seq == s.cumulative) {
        // In-order: consume immediately, then drain the held run.
        std::uint64_t consume_corr =
            batchCorr(msg.node, msg.stream, msg.batch_seq);
        obs::simFlowEnd("collect.batch", consume_corr, queue_->now(),
                        obsNode(node_));
        obs::simInstant("ingest.consume", consume_corr, queue_->now(),
                        obsNode(node_),
                        static_cast<std::uint32_t>(msg.batch_seq));
        s.payload.insert(s.payload.end(), msg.chunk.begin(),
                         msg.chunk.end());
        s.cumulative += 1;
        auto it = s.held.begin();
        while (it != s.held.end() && it->first == s.cumulative) {
            obs::simInstant("ingest.consume",
                            batchCorr(msg.node, msg.stream, it->first),
                            queue_->now(), obsNode(node_),
                            static_cast<std::uint32_t>(it->first));
            s.payload.insert(s.payload.end(), it->second.begin(),
                             it->second.end());
            s.cumulative += 1;
            it = s.held.erase(it);
        }
    } else {
        s.held.emplace(msg.batch_seq, msg.chunk);
    }
    sendAck(msg.node, msg.stream, msg.batch_seq, s);
}

void
Ingest::onReport(const net::BehaviorReportMsg &msg)
{
    Stream &s = streams_[{msg.node, msg.stream}];
    if (!s.finale) {
        obs::simInstant("ingest.finale",
                        batchCorr(msg.node, msg.stream, net::kFinaleSeq),
                        queue_->now(), obsNode(node_),
                        msg.degraded ? 1u : 0u);
        s.finale = true;
        s.degraded = msg.degraded;
        s.batches_spilled = msg.batches_spilled;
        s.summary = msg.summary;
    } else {
        stats_.batches_duplicate += 1;
    }
    sendAck(msg.node, msg.stream, net::kFinaleSeq, s);
}

void
Ingest::onFrame(NodeId src, const std::vector<std::uint8_t> &bytes)
{
    net::Frame frame;
    std::size_t consumed = 0;
    net::DecodeStatus st =
        net::decodeFrame(bytes.data(), bytes.size(), &frame, &consumed);
    if (st != net::DecodeStatus::kOk) {
        warn("ingest %d: undecodable frame from %d (%s)", node_, src,
             net::decodeStatusName(st));
        return;
    }
    MutexLock lk(mu_);
    switch (frame.type) {
      case net::MsgType::kTraceRegionBatch:
        onBatch(frame.batch);
        break;
      case net::MsgType::kBehaviorReport:
        onReport(frame.report);
        break;
      case net::MsgType::kAck:
        break;  // masters do not consume acks
    }
}

IngestedStream
Ingest::take(NodeId node, std::uint64_t stream)
{
    MutexLock lk(mu_);
    IngestedStream out;
    out.node = node;
    out.stream = stream;
    auto it = streams_.find({node, stream});
    if (it == streams_.end())
        return out;
    Stream &s = it->second;
    out.complete = streamComplete(s);
    out.degraded = s.degraded;
    out.batches_spilled = s.batches_spilled;
    out.payload = std::move(s.payload);
    out.summary = std::move(s.summary);
    streams_.erase(it);
    return out;
}

IngestStats
Ingest::stats() const
{
    MutexLock lk(mu_);
    return stats_;
}

}  // namespace exist
