/**
 * @file
 * Per-node trace agent of the collection plane (ISSUE 6): drains a
 * node's decoded session output — an opaque serialized payload, plus
 * a behaviour summary — into a bounded send queue and ships it to the
 * master's ingest over the simulated fabric as sequenced
 * TraceRegionBatch frames.
 *
 * Reliability state machine, per stream:
 *
 *   stage   payload chunks into the bounded queue (<= queue_capacity
 *           batches materialized at once; refilled as acks drain it)
 *   send    in sequence order, at most `window` unacked in flight and
 *           never beyond the master's advertised credit
 *   retry   per-batch timer; exponential backoff rto_initial * 2^n
 *           capped at rto_max; ack cancels the timer
 *   spill   when a batch exhausts max_retries, or the master's credit
 *           stays zero past stall_spill_us (backpressure), the agent
 *           degrades gracefully: it drops the stream's remaining
 *           batches and falls back to summarize-only
 *   finale  a BehaviorReport frame (summary + degradation accounting)
 *           closes every stream, retried without a retry cap — it is
 *           the part that must survive
 *
 * Heartbeats carry liveness + queue depth while any stream is in
 * flight; the master answers them with fresh credit, which is how an
 * agent paused by backpressure learns the master drained.
 *
 * All timing is virtual (the fabric's EventQueue) and all fault
 * randomness lives in the fabric's per-link streams, so a transfer is
 * bit-reproducible from the seed. Thread-safety: the agent is driven
 * by the single-threaded event loop, but stats()/idle() may be polled
 * from other threads, so all state is guarded by an annotated mutex
 * (rank kAgentQueue — see DESIGN.md §8).
 */
#ifndef EXIST_AGENT_TRACE_AGENT_H
#define EXIST_AGENT_TRACE_AGENT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/frame.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace exist::agent {

struct AgentConfig {
    /** Payload bytes per TraceRegionBatch frame. */
    std::size_t batch_bytes = 32 * 1024;
    /** Bounded send queue: batches materialized at once. */
    std::size_t queue_capacity = 32;
    /** Max unacked batches in flight (<= queue_capacity). */
    std::size_t window = 16;
    /** Retries per batch before the stream spills. */
    int max_retries = 12;
    double rto_initial_us = 500.0;
    double rto_max_us = 64'000.0;
    double heartbeat_interval_us = 2'000.0;
    /** Zero master credit for longer than this => spill. */
    double stall_spill_us = 200'000.0;
};

struct AgentStats {
    std::uint64_t batches_sent = 0;    ///< first transmissions
    std::uint64_t retransmits = 0;
    std::uint64_t backoffs = 0;        ///< rto doublings applied
    std::uint64_t acks_received = 0;
    std::uint64_t dup_acks = 0;        ///< acks for already-done seqs
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t batches_spilled = 0;
    std::uint64_t streams_degraded = 0;
    std::uint64_t max_queue_depth = 0;
};

class TraceAgent
{
  public:
    TraceAgent(EventQueue *queue, net::Fabric *fabric, NodeId node,
               NodeId collector, AgentConfig cfg = {});

    /** Fabric delivery entry point (acks / credit updates). Wire this
     *  as the node's Fabric::attach callback. */
    void onFrame(NodeId src, const std::vector<std::uint8_t> &bytes)
        EXIST_EXCLUDES(mu_);

    /**
     * Enqueue one session payload for shipment as stream `stream`
     * (unique per agent). Staging, sending, retries and the finale
     * all run on the event queue from here on; an empty payload is
     * a finale-only stream.
     */
    void ship(std::uint64_t stream, std::vector<std::uint8_t> payload,
              std::string summary) EXIST_EXCLUDES(mu_);

    /** True once every shipped stream's finale has been acked. */
    bool idle() const EXIST_EXCLUDES(mu_);

    AgentStats stats() const EXIST_EXCLUDES(mu_);
    NodeId node() const { return node_; }

  private:
    struct Batch {
        std::vector<std::uint8_t> chunk;
        int retries = 0;
        bool sent = false;
        EventId timer = kInvalidEvent;
    };
    struct Stream {
        std::vector<std::uint8_t> payload;
        std::string summary;
        std::uint64_t total_batches = 0;
        std::uint64_t next_to_stage = 0;   ///< next seq to materialize
        std::map<std::uint64_t, Batch> staged;  ///< seq -> in-queue
        std::uint64_t credit_horizon = 0;  ///< master allows seq < this
        Cycles stalled_since = 0;          ///< 0 = not stalled
        bool degraded = false;
        bool finale_sent = false;
        bool finale_acked = false;
        std::uint64_t batches_spilled = 0;
        int finale_retries = 0;
        EventId finale_timer = kInvalidEvent;
    };

    void stageAndPump(std::uint64_t stream_id, Stream &s)
        EXIST_REQUIRES(mu_);
    void sendBatch(std::uint64_t stream_id, Stream &s,
                   std::uint64_t seq) EXIST_REQUIRES(mu_);
    void onBatchTimeout(std::uint64_t stream_id, std::uint64_t seq)
        EXIST_EXCLUDES(mu_);
    void spill(std::uint64_t stream_id, Stream &s) EXIST_REQUIRES(mu_);
    void sendFinale(std::uint64_t stream_id, Stream &s)
        EXIST_REQUIRES(mu_);
    void onFinaleTimeout(std::uint64_t stream_id) EXIST_EXCLUDES(mu_);
    void onAck(const net::AckMsg &ack) EXIST_REQUIRES(mu_);
    void scheduleHeartbeat() EXIST_REQUIRES(mu_);
    void onHeartbeatTimer() EXIST_EXCLUDES(mu_);
    bool allDone() const EXIST_REQUIRES(mu_);
    std::size_t queueDepth() const EXIST_REQUIRES(mu_);
    Cycles rtoAfter(int retries) const;

    EventQueue *queue_;
    net::Fabric *fabric_;
    const NodeId node_;
    const NodeId collector_;
    const AgentConfig cfg_;

    mutable Mutex mu_{lockorder::LockRank::kAgentQueue, "agent.queue"};
    std::map<std::uint64_t, Stream> streams_ EXIST_GUARDED_BY(mu_);
    AgentStats stats_ EXIST_GUARDED_BY(mu_);
    std::uint64_t heartbeat_seq_ EXIST_GUARDED_BY(mu_) = 0;
    EventId heartbeat_timer_ EXIST_GUARDED_BY(mu_) = kInvalidEvent;
};

}  // namespace exist::agent

#endif  // EXIST_AGENT_TRACE_AGENT_H
