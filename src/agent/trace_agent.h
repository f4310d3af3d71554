/**
 * @file
 * Per-node trace agent of the collection plane (ISSUE 6): ships a
 * node's decoded session output — an opaque serialized payload, plus
 * a behaviour summary — to the master's ingest over the simulated
 * fabric as sequenced TraceRegionBatch frames.
 *
 * Flow control is one rule: batch `seq` is sliced straight from the
 * stream's payload and sent while fewer than kWindow batches are
 * unacked and `seq` is below the credit horizon the ingest's acks
 * advertise. Reliability state machine, per stream:
 *
 *   send    in sequence order under that rule; every ack may widen
 *           the credit horizon and frees a window slot
 *   retry   per-batch timer from when the batch leaves the NIC;
 *           exponential backoff kRtoInitialUs * 2^n capped at
 *           kRtoMaxUs; ack cancels the timer
 *   spill   when a batch exhausts kMaxRetries the agent degrades
 *           gracefully: it drops the stream's remaining batches and
 *           falls back to summarize-only
 *   finale  a BehaviorReport frame (summary + degradation accounting)
 *           closes every stream, retried without a retry cap — it is
 *           the part that must survive
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

/** Payload bytes per TraceRegionBatch frame. */
inline constexpr std::size_t kBatchBytes = 32 * 1024;
/** Max unacked batches in flight per stream. */
inline constexpr std::size_t kWindow = 16;
/** Retries per batch before the stream spills. */
inline constexpr int kMaxRetries = 12;
inline constexpr double kRtoInitialUs = 500.0;
inline constexpr double kRtoMaxUs = 64'000.0;

struct AgentStats {
    std::uint64_t batches_sent = 0;    ///< first transmissions
    std::uint64_t retransmits = 0;
    std::uint64_t backoffs = 0;        ///< rto doublings applied
    std::uint64_t acks_received = 0;
    std::uint64_t dup_acks = 0;        ///< acks for already-done seqs
    std::uint64_t batches_spilled = 0;
    std::uint64_t streams_degraded = 0;
};

class TraceAgent
{
  public:
    TraceAgent(EventQueue *queue, net::Fabric *fabric, NodeId node,
               NodeId collector);

    /** Fabric delivery entry point (acks). Wire this as the node's
     *  Fabric::attach callback. */
    void onFrame(NodeId src, const std::vector<std::uint8_t> &bytes)
        EXIST_EXCLUDES(mu_);

    /**
     * Ship one session payload as stream `stream` (unique per agent).
     * Sending, retries and the finale all run on the event queue from
     * here on; an empty payload is a finale-only stream.
     */
    void ship(std::uint64_t stream, std::vector<std::uint8_t> payload,
              std::string summary) EXIST_EXCLUDES(mu_);

    /** True once every shipped stream's finale has been acked. */
    bool idle() const EXIST_EXCLUDES(mu_);

    AgentStats stats() const EXIST_EXCLUDES(mu_);
    NodeId node() const { return node_; }

  private:
    /** One sent, not yet acked batch. */
    struct Batch {
        int retries = 0;
        EventId timer = kInvalidEvent;
    };
    struct Stream {
        std::vector<std::uint8_t> payload;
        std::string summary;
        std::uint64_t total_batches = 0;
        std::uint64_t next_to_send = 0;     ///< first never-sent seq
        std::map<std::uint64_t, Batch> unacked;  ///< seq -> in flight
        std::uint64_t credit_horizon = 0;   ///< master allows seq < this
        bool degraded = false;
        bool finale_sent = false;
        bool finale_acked = false;
        std::uint64_t batches_spilled = 0;
        int finale_retries = 0;
        EventId finale_timer = kInvalidEvent;
    };

    void pump(std::uint64_t stream_id, Stream &s) EXIST_REQUIRES(mu_);
    void sendBatch(std::uint64_t stream_id, Stream &s, std::uint64_t seq,
                   Batch &b) EXIST_REQUIRES(mu_);
    void onBatchTimeout(std::uint64_t stream_id, std::uint64_t seq)
        EXIST_EXCLUDES(mu_);
    void spill(std::uint64_t stream_id, Stream &s) EXIST_REQUIRES(mu_);
    void sendFinale(std::uint64_t stream_id, Stream &s)
        EXIST_REQUIRES(mu_);
    void onFinaleTimeout(std::uint64_t stream_id) EXIST_EXCLUDES(mu_);
    void onAck(const net::AckMsg &ack) EXIST_REQUIRES(mu_);
    bool allDone() const EXIST_REQUIRES(mu_);

    EventQueue *queue_;
    net::Fabric *fabric_;
    const NodeId node_;
    const NodeId collector_;

    mutable Mutex mu_{lockorder::LockRank::kAgentQueue, "agent.queue"};
    std::map<std::uint64_t, Stream> streams_ EXIST_GUARDED_BY(mu_);
    AgentStats stats_ EXIST_GUARDED_BY(mu_);
};

}  // namespace exist::agent

#endif  // EXIST_AGENT_TRACE_AGENT_H
