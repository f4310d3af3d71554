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

}  // namespace

TraceAgent::TraceAgent(EventQueue *queue, net::Fabric *fabric,
                       NodeId node, NodeId collector, AgentConfig cfg)
    : queue_(queue), fabric_(fabric), node_(node),
      collector_(collector), cfg_(cfg)
{
    EXIST_ASSERT(cfg_.batch_bytes > 0, "agent batch_bytes must be > 0");
    EXIST_ASSERT(cfg_.window > 0 &&
                     cfg_.window <= cfg_.queue_capacity,
                 "agent window must be in [1, queue_capacity]");
}

Cycles
TraceAgent::rtoAfter(int retries) const
{
    double rto = cfg_.rto_initial_us;
    for (int i = 0; i < retries && rto < cfg_.rto_max_us; ++i)
        rto *= 2.0;
    return usToCycles(std::min(rto, cfg_.rto_max_us));
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
    s.total_batches =
        (payload.size() + cfg_.batch_bytes - 1) / cfg_.batch_bytes;
    s.payload = std::move(payload);
    s.summary = std::move(summary);
    // Optimistic initial credit: one agent window. The first ack
    // replaces it with the master's real receive window.
    s.credit_horizon = cfg_.window;
    stageAndPump(stream, s);
    if (s.staged.empty() && s.next_to_stage == s.total_batches &&
        !s.finale_sent)
        sendFinale(stream, s);  // empty payload: finale-only stream
    scheduleHeartbeat();
}

void
TraceAgent::stageAndPump(std::uint64_t stream_id, Stream &s)
{
    // Stage: materialize payload chunks into the bounded send queue.
    while (s.staged.size() < cfg_.queue_capacity &&
           s.next_to_stage < s.total_batches) {
        std::uint64_t seq = s.next_to_stage++;
        std::size_t begin = seq * cfg_.batch_bytes;
        std::size_t end =
            std::min(begin + cfg_.batch_bytes, s.payload.size());
        Batch b;
        b.chunk.assign(s.payload.begin() +
                           static_cast<std::ptrdiff_t>(begin),
                       s.payload.begin() +
                           static_cast<std::ptrdiff_t>(end));
        s.staged.emplace(seq, std::move(b));
    }

    // Pump: send in sequence order within our window and the
    // master's advertised credit.
    std::size_t inflight = 0;
    for (const auto &[seq, b] : s.staged)
        if (b.sent)
            ++inflight;
    bool progressed = false;
    for (auto &[seq, b] : s.staged) {
        if (b.sent)
            continue;
        if (inflight >= cfg_.window || seq >= s.credit_horizon)
            break;
        sendBatch(stream_id, s, seq);
        ++inflight;
        progressed = true;
    }

    if (progressed || inflight > 0) {
        s.stalled_since = 0;
    } else if (!s.staged.empty() && s.stalled_since == 0) {
        // Credit exhausted with nothing in flight: the master is
        // backpressuring us. The heartbeat timer watches this clock
        // and spills the stream if it runs past stall_spill_us.
        s.stalled_since = queue_->now();
    }
    stats_.max_queue_depth =
        std::max<std::uint64_t>(stats_.max_queue_depth, queueDepth());
}

void
TraceAgent::sendBatch(std::uint64_t stream_id, Stream &s,
                      std::uint64_t seq)
{
    Batch &b = s.staged.at(seq);
    b.sent = true;
    net::TraceRegionBatchMsg msg;
    msg.node = node_;
    msg.stream = stream_id;
    msg.batch_seq = seq;
    msg.total_batches = s.total_batches;
    msg.chunk = b.chunk;
    std::uint64_t obs_corr = batchCorr(node_, stream_id, seq);
    obs::simInstant("agent.batch", obs_corr, queue_->now(),
                    static_cast<std::uint32_t>(node_),
                    static_cast<std::uint32_t>(b.retries));
    obs::simFlowBegin("collect.batch", obs_corr, queue_->now(),
                      static_cast<std::uint32_t>(node_));
    fabric_->send(node_, collector_, net::encodeFrame(msg));
    if (b.retries == 0)
        stats_.batches_sent += 1;
    else
        stats_.retransmits += 1;
    b.timer = queue_->scheduleAfter(
        rtoAfter(b.retries),
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
    auto bit = s.staged.find(seq);
    if (bit == s.staged.end() || !bit->second.sent)
        return;  // acked (or spilled) while the timer was in flight
    Batch &b = bit->second;
    b.timer = kInvalidEvent;
    b.retries += 1;
    if (b.retries > cfg_.max_retries) {
        spill(stream_id, s);
        return;
    }
    stats_.backoffs += 1;
    sendBatch(stream_id, s, seq);
}

void
TraceAgent::spill(std::uint64_t stream_id, Stream &s)
{
    // Degrade gracefully: drop every batch not yet acknowledged and
    // fall back to summarize-only (the finale still ships reliably).
    std::uint64_t dropped = s.staged.size() +
                            (s.total_batches - s.next_to_stage);
    for (auto &[seq, b] : s.staged)
        if (b.timer != kInvalidEvent)
            queue_->cancel(b.timer);
    s.staged.clear();
    s.next_to_stage = s.total_batches;
    s.batches_spilled += dropped;
    s.stalled_since = 0;
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
    fabric_->send(node_, collector_, net::encodeFrame(msg));
    s.finale_timer = queue_->scheduleAfter(
        rtoAfter(s.finale_retries),
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
    } else {
        if (ack.batch_seq != net::kCreditSeq) {
            auto bit = s.staged.find(ack.batch_seq);
            if (bit != s.staged.end() && bit->second.sent) {
                if (bit->second.timer != kInvalidEvent)
                    queue_->cancel(bit->second.timer);
                s.staged.erase(bit);
            } else {
                stats_.dup_acks += 1;
            }
        }
        s.credit_horizon = std::max(
            s.credit_horizon, ack.cumulative + ack.window);
        stageAndPump(ack.stream, s);
        if (s.staged.empty() &&
            s.next_to_stage == s.total_batches && !s.finale_sent)
            sendFinale(ack.stream, s);
    }

    if (allDone() && heartbeat_timer_ != kInvalidEvent) {
        queue_->cancel(heartbeat_timer_);
        heartbeat_timer_ = kInvalidEvent;
    }
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

void
TraceAgent::scheduleHeartbeat()
{
    if (heartbeat_timer_ != kInvalidEvent)
        return;
    heartbeat_timer_ =
        queue_->scheduleAfter(usToCycles(cfg_.heartbeat_interval_us),
                              [this]() { onHeartbeatTimer(); });
}

void
TraceAgent::onHeartbeatTimer()
{
    MutexLock lk(mu_);
    heartbeat_timer_ = kInvalidEvent;
    if (allDone())
        return;  // streams finished: let the event queue drain

    net::HeartbeatMsg hb;
    hb.node = node_;
    hb.seq = ++heartbeat_seq_;
    hb.queue_depth = queueDepth();
    obs::simInstant("agent.heartbeat", obs::corrId(node_, hb.seq),
                    queue_->now(), static_cast<std::uint32_t>(node_),
                    static_cast<std::uint32_t>(hb.queue_depth));
    fabric_->send(node_, collector_, net::encodeFrame(hb));
    stats_.heartbeats_sent += 1;

    // Backpressure watchdog: a stream stalled on zero credit past the
    // budget degrades to summarize-only instead of waiting forever.
    Cycles now = queue_->now();
    for (auto &[stream_id, s] : streams_) {
        if (s.stalled_since != 0 &&
            now - s.stalled_since > usToCycles(cfg_.stall_spill_us))
            spill(stream_id, s);
    }
    scheduleHeartbeat();
}

bool
TraceAgent::allDone() const
{
    for (const auto &[id, s] : streams_)
        if (!s.finale_acked)
            return false;
    return true;
}

std::size_t
TraceAgent::queueDepth() const
{
    std::size_t depth = 0;
    for (const auto &[id, s] : streams_)
        depth += s.staged.size();
    return depth;
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
