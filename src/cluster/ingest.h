/**
 * @file
 * Master-side ingest front end of the collection plane: the fabric
 * endpoint that receives TraceRegionBatch / BehaviorReport /
 * Heartbeat frames from node agents, makes delivery *idempotent*
 * (dedup by (node, stream, batch_seq) — re-transmissions and
 * fabric-duplicated frames are acked but consumed once), and
 * reassembles each stream's payload strictly in sequence order:
 * the in-order prefix is appended to the payload immediately, while
 * out-of-order batches are held (bounded) until the gap fills.
 *
 * Backpressure: every ack advertises a window — the count of batches
 * beyond the contiguous prefix the ingest will hold. pause() models a
 * busy master: the window drops to zero, agents stall (and eventually
 * spill if it lasts past their budget); resume() re-opens it, and the
 * next heartbeat from a stalled agent is answered with a credit-only
 * ack so the agent learns without guessing.
 *
 * A stream completes when all total_batches batches were consumed AND
 * its BehaviorReport finale arrived; a degraded stream (the agent
 * spilled) completes on the finale alone, carrying only the summary.
 *
 * Thread-safety: driven by the single-threaded event loop, but
 * stats()/take() may be polled from other threads — all state behind
 * an annotated mutex of rank kIngest (DESIGN.md §8).
 */
#ifndef EXIST_CLUSTER_INGEST_H
#define EXIST_CLUSTER_INGEST_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/frame.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace exist {

struct IngestConfig {
    /** Out-of-order batches held per stream beyond the contiguous
     *  prefix; also the advertised window ceiling. */
    std::size_t buffer_batches = 64;
};

struct IngestStats {
    std::uint64_t frames_received = 0;
    std::uint64_t frames_rejected = 0;  ///< failed decodeFrame
    std::uint64_t batches_accepted = 0;
    std::uint64_t batches_duplicate = 0;
    std::uint64_t batches_refused = 0;  ///< outside the offered window
    std::uint64_t acks_sent = 0;
    std::uint64_t heartbeats_seen = 0;
    std::uint64_t finales_received = 0;
    std::uint64_t streams_completed = 0;
    std::uint64_t streams_degraded = 0;
};

/** One reassembled stream, harvested with Ingest::take(). */
struct IngestedStream {
    NodeId node = kInvalidId;
    std::uint64_t stream = 0;
    bool complete = false;  ///< payload fully reassembled
    bool degraded = false;  ///< agent spilled; only the summary holds
    std::uint64_t batches_spilled = 0;
    std::vector<std::uint8_t> payload;  ///< in-sequence reassembly
    std::string summary;                ///< the finale's digest
};

class Ingest
{
  public:
    Ingest(EventQueue *queue, net::Fabric *fabric, NodeId node,
           IngestConfig cfg = {});

    /** Fabric delivery entry point; wire as Fabric::attach callback. */
    void onFrame(NodeId src, const std::vector<std::uint8_t> &bytes)
        EXIST_EXCLUDES(mu_);

    /** Model master backpressure: advertise a zero window. */
    void pause() EXIST_EXCLUDES(mu_);
    void resume() EXIST_EXCLUDES(mu_);

    /** Streams whose finale has arrived. */
    std::size_t completedCount() const EXIST_EXCLUDES(mu_);

    /**
     * Harvest one stream (after the event loop drained). `complete`
     * in the result reports whether the payload reassembled fully;
     * a missing stream returns IngestedStream{} with complete=false.
     */
    IngestedStream take(NodeId node, std::uint64_t stream)
        EXIST_EXCLUDES(mu_);

    IngestStats stats() const EXIST_EXCLUDES(mu_);
    NodeId node() const { return node_; }

  private:
    struct Stream {
        std::uint64_t total_batches = 0;  ///< 0 until the first batch
        std::uint64_t cumulative = 0;     ///< seqs [0, cumulative) consumed
        std::vector<std::uint8_t> payload;
        /** Out-of-order batches held until the gap fills. */
        std::map<std::uint64_t, std::vector<std::uint8_t>> held;
        bool finale = false;
        bool degraded = false;
        std::uint64_t batches_spilled = 0;
        std::string summary;
    };

    using StreamKey = std::pair<NodeId, std::uint64_t>;

    void onBatch(const net::TraceRegionBatchMsg &msg)
        EXIST_REQUIRES(mu_);
    void onReport(const net::BehaviorReportMsg &msg)
        EXIST_REQUIRES(mu_);
    void onHeartbeat(const net::HeartbeatMsg &msg) EXIST_REQUIRES(mu_);
    void sendAck(NodeId dst, std::uint64_t stream,
                 std::uint64_t batch_seq, const Stream &s)
        EXIST_REQUIRES(mu_);
    std::uint32_t windowFor(const Stream &s) const EXIST_REQUIRES(mu_);
    bool streamComplete(const Stream &s) const EXIST_REQUIRES(mu_);

    EventQueue *queue_;
    net::Fabric *fabric_;
    const NodeId node_;
    const IngestConfig cfg_;

    mutable Mutex mu_{lockorder::LockRank::kIngest, "cluster.ingest"};
    std::map<StreamKey, Stream> streams_ EXIST_GUARDED_BY(mu_);
    IngestStats stats_ EXIST_GUARDED_BY(mu_);
    bool paused_ EXIST_GUARDED_BY(mu_) = false;
};

}  // namespace exist

#endif  // EXIST_CLUSTER_INGEST_H
