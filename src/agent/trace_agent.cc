#include "agent/trace_agent.h"

#include <algorithm>
#include <utility>

#include "obs/trace_plane.h"
#include "util/logging.h"

namespace exist::agent {

namespace {

/** Batch correlation id: derived only from (node, stream, seq), so the
 *  master-side ingest mints the identical id without communication and
 *  traces of the same seed correlate identically run to run. */
std::uint64_t
batchCorr(NodeId node, std::uint64_t stream, std::uint64_t seq)
{
    return obs::corrId(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(node)),
        stream, seq);
}

/** Retransmit timeout after `retries` expiries: kRtoInitialUs doubled
 *  per retry, capped at kRtoMaxUs. */
Cycles
rtoAfter(int retries)
{
    double rto = kRtoInitialUs;
    for (int i = 0; i < retries && rto < kRtoMaxUs; ++i)
        rto *= 2.0;
    return usToCycles(std::min(rto, kRtoMaxUs));
}

}  // namespace

TraceAgent::TraceAgent(EventQueue *queue, net::Fabric *fabric,
                       NodeId node, NodeId collector)
    : queue_(queue), fabric_(fabric), node_(node), collector_(collector)
{
}

void
TraceAgent::ship(std::uint64_t stream, std::vector<std::uint8_t> payload,
                 std::string summary)
{
    MutexLock lk(mu_);
    EXIST_ASSERT(streams_.find(stream) == streams_.end(),
                 "agent %d: stream %llu shipped twice", node_,
                 (unsigned long long)stream);
    Stream &s = streams_[stream];
    s.total_batches = (payload.size() + kBatchBytes - 1) / kBatchBytes;
    s.payload = std::move(payload);
    s.summary = std::move(summary);
    // Optimistic initial credit: one agent window. The first ack
    // replaces it with the master's real receive window.
    s.credit_horizon = kWindow;
    pump(stream, s);
}

void
TraceAgent::pump(std::uint64_t stream_id, Stream &s)
{
    // The one flow-control rule: send in sequence order while the
    // window has room and the master's credit allows the next seq.
    while (s.unacked.size() < kWindow &&
           s.next_to_send < s.total_batches &&
           s.next_to_send < s.credit_horizon) {
        std::uint64_t seq = s.next_to_send++;
        sendBatch(stream_id, s, seq, s.unacked[seq]);
    }
    // Every batch acked (an empty payload has none): close the stream.
    if (s.unacked.empty() && s.next_to_send == s.total_batches &&
        !s.finale_sent)
        sendFinale(stream_id, s);
}

void
TraceAgent::sendBatch(std::uint64_t stream_id, Stream &s,
                      std::uint64_t seq, Batch &b)
{
    const std::size_t begin = seq * kBatchBytes;
    const std::size_t end = std::min(begin + kBatchBytes, s.payload.size());
    net::TraceRegionBatchMsg msg;
    msg.node = node_;
    msg.stream = stream_id;
    msg.batch_seq = seq;
    msg.total_batches = s.total_batches;
    msg.chunk.assign(s.payload.begin() + static_cast<std::ptrdiff_t>(begin),
                     s.payload.begin() + static_cast<std::ptrdiff_t>(end));
    std::uint64_t obs_corr = batchCorr(node_, stream_id, seq);
    obs::simInstant("agent.batch", obs_corr, queue_->now(),
                    static_cast<std::uint32_t>(node_),
                    static_cast<std::uint32_t>(b.retries));
    obs::simFlowBegin("collect.batch", obs_corr, queue_->now(),
                      static_cast<std::uint32_t>(node_));
    const Cycles departs =
        fabric_->send(node_, collector_, net::encodeFrame(msg));
    if (b.retries == 0)
        stats_.batches_sent += 1;
    else
        stats_.retransmits += 1;
    // The RTO runs from the moment the batch leaves the NIC: a full
    // window queues behind itself for longer than the initial RTO.
    b.timer = queue_->schedule(
        departs + rtoAfter(b.retries),
        [this, stream_id, seq]() { onBatchTimeout(stream_id, seq); });
}

void
TraceAgent::onBatchTimeout(std::uint64_t stream_id, std::uint64_t seq)
{
    MutexLock lk(mu_);
    auto sit = streams_.find(stream_id);
    if (sit == streams_.end())
        return;
    Stream &s = sit->second;
    auto bit = s.unacked.find(seq);
    if (bit == s.unacked.end())
        return;  // acked (or spilled) while the timer was in flight
    Batch &b = bit->second;
    b.timer = kInvalidEvent;
    b.retries += 1;
    if (b.retries > kMaxRetries) {
        spill(stream_id, s);
        return;
    }
    stats_.backoffs += 1;
    sendBatch(stream_id, s, seq, b);
}

void
TraceAgent::spill(std::uint64_t stream_id, Stream &s)
{
    // Degrade gracefully: drop every batch not yet acknowledged and
    // fall back to summarize-only (the finale still ships reliably).
    std::uint64_t dropped = s.unacked.size() +
                            (s.total_batches - s.next_to_send);
    for (auto &[seq, b] : s.unacked)
        if (b.timer != kInvalidEvent)
            queue_->cancel(b.timer);
    s.unacked.clear();
    s.next_to_send = s.total_batches;
    s.batches_spilled += dropped;
    stats_.batches_spilled += dropped;
    if (!s.degraded) {
        s.degraded = true;
        stats_.streams_degraded += 1;
    }
    obs::simInstant("agent.spill", obs::corrId(node_, stream_id),
                    queue_->now(), static_cast<std::uint32_t>(node_),
                    static_cast<std::uint32_t>(dropped));
    warn("agent %d: stream %llu spilled %llu batches "
         "(summarize-only fallback)",
         node_, (unsigned long long)stream_id,
         (unsigned long long)dropped);
    if (!s.finale_sent)
        sendFinale(stream_id, s);
}

void
TraceAgent::sendFinale(std::uint64_t stream_id, Stream &s)
{
    s.finale_sent = true;
    net::BehaviorReportMsg msg;
    msg.node = node_;
    msg.stream = stream_id;
    msg.degraded = s.degraded;
    msg.batches_spilled = s.batches_spilled;
    msg.summary = s.summary;
    obs::simInstant("agent.finale",
                    batchCorr(node_, stream_id, net::kFinaleSeq),
                    queue_->now(), static_cast<std::uint32_t>(node_),
                    static_cast<std::uint32_t>(s.finale_retries));
    const Cycles departs =
        fabric_->send(node_, collector_, net::encodeFrame(msg));
    s.finale_timer = queue_->schedule(
        departs + rtoAfter(s.finale_retries),
        [this, stream_id]() { onFinaleTimeout(stream_id); });
}

void
TraceAgent::onFinaleTimeout(std::uint64_t stream_id)
{
    MutexLock lk(mu_);
    auto sit = streams_.find(stream_id);
    if (sit == streams_.end())
        return;
    Stream &s = sit->second;
    if (s.finale_acked)
        return;
    s.finale_timer = kInvalidEvent;
    // No retry cap on the finale: the summary is the part of a
    // degraded stream that must survive. The rto cap still bounds
    // the retransmit rate.
    s.finale_retries += 1;
    stats_.retransmits += 1;
    sendFinale(stream_id, s);
}

void
TraceAgent::onAck(const net::AckMsg &ack)
{
    auto sit = streams_.find(ack.stream);
    if (sit == streams_.end())
        return;
    Stream &s = sit->second;
    stats_.acks_received += 1;

    if (ack.batch_seq == net::kFinaleSeq) {
        if (!s.finale_acked) {
            s.finale_acked = true;
            if (s.finale_timer != kInvalidEvent) {
                queue_->cancel(s.finale_timer);
                s.finale_timer = kInvalidEvent;
            }
        } else {
            stats_.dup_acks += 1;
        }
        return;
    }
    auto bit = s.unacked.find(ack.batch_seq);
    if (bit != s.unacked.end()) {
        if (bit->second.timer != kInvalidEvent)
            queue_->cancel(bit->second.timer);
        s.unacked.erase(bit);
    } else {
        stats_.dup_acks += 1;
    }
    s.credit_horizon =
        std::max(s.credit_horizon, ack.cumulative + ack.window);
    pump(ack.stream, s);
}

void
TraceAgent::onFrame(NodeId src, const std::vector<std::uint8_t> &bytes)
{
    (void)src;
    net::Frame frame;
    std::size_t consumed = 0;
    net::DecodeStatus st =
        net::decodeFrame(bytes.data(), bytes.size(), &frame, &consumed);
    if (st != net::DecodeStatus::kOk) {
        warn("agent %d: undecodable frame (%s)", node_,
             net::decodeStatusName(st));
        return;
    }
    if (frame.type != net::MsgType::kAck)
        return;  // agents only consume acks
    MutexLock lk(mu_);
    onAck(frame.ack);
}

bool
TraceAgent::allDone() const
{
    for (const auto &[id, s] : streams_)
        if (!s.finale_acked)
            return false;
    return true;
}

bool
TraceAgent::idle() const
{
    MutexLock lk(mu_);
    return allDone();
}

AgentStats
TraceAgent::stats() const
{
    MutexLock lk(mu_);
    return stats_;
}

}  // namespace exist::agent
