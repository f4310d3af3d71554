/**
 * @file
 * Deterministic simulated datacenter fabric for the collection plane
 * (ISSUE 6 / paper §3.4, §4): node agents and the master ingest
 * attach as endpoints; frames sent between them experience NIC
 * serialization (per-node egress queue, bandwidth-bounded), link
 * latency + jitter, and configurable drop / reorder / duplicate
 * faults, all scheduled on a sim/EventQueue in virtual time.
 *
 * Determinism contract (tools/analyzer's raw-rand rule + the wire-log
 * regression test): every stochastic decision — jitter, drop,
 * reorder, duplicate — is drawn from a per-link util/rng.h stream
 * seeded by splitmix64 over (fabric seed, src node, dst node), so the
 * fault pattern is a pure function of the seed and the traffic, never
 * of host scheduling. Two runs at one seed produce byte-identical
 * wire-level event logs.
 *
 * The fabric is single-threaded by design: it is driven entirely by
 * the owning EventQueue, so it carries no mutex (DESIGN.md §10). The
 * thread-safe pieces of the collection plane are the endpoints
 * (agent/trace_agent.h, cluster/ingest.h).
 */
#ifndef EXIST_NET_FABRIC_H
#define EXIST_NET_FABRIC_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"
#include "util/types.h"

namespace exist::net {

/**
 * Collection-plane transport knobs. Built from a TraceRequest's
 * net=true loss=... manifest keys (TraceRequest::netSpec(), read by
 * collectPlan and by `existctl trace --net`); the analysis layer's
 * ExperimentSpec carries none. NetSpec{} with enabled=false is the
 * historical in-process hand-off.
 */
struct NetSpec {
    bool enabled = false;
    /** Per-frame drop probability on every link. */
    double drop_rate = 0.0;
    /** Probability a delivered frame is held back long enough to be
     *  overtaken (extra uniform delay up to reorder_window_us). */
    double reorder_rate = 0.0;
    /** Probability a delivered frame arrives twice. */
    double duplicate_rate = 0.0;
    double link_latency_us = 50.0;
    double jitter_us = 5.0;          ///< uniform [0, jitter) extra
    double reorder_window_us = 400.0;
    double bandwidth_gbps = 10.0;    ///< egress serialization rate
    /** Record the wire-level event log (determinism regression). */
    bool record_wire_log = false;

    bool operator==(const NetSpec &) const = default;
};

/** One wire-level event, for the determinism regression log. */
struct WireEvent {
    enum class Kind : std::uint8_t { kSend, kDrop, kDuplicate, kDeliver };
    Cycles at = 0;
    Kind kind = Kind::kSend;
    NodeId src = kInvalidId;
    NodeId dst = kInvalidId;
    std::uint64_t frame_id = 0;
    std::uint32_t bytes = 0;
};

/** Fabric-level counters, exported into the net.* metrics scope by
 *  the collection plane (the fabric itself stays metrics-free so the
 *  net library depends only on sim + util). */
struct FabricStats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_dropped = 0;
    std::uint64_t frames_duplicated = 0;
    std::uint64_t frames_reordered = 0;
    std::uint64_t frames_delivered = 0;
    std::uint64_t bytes_on_wire = 0;
    /** Virtual send->deliver latencies (us) of delivered frames, in
     *  delivery order. */
    std::vector<double> delivery_us;
};

class Fabric
{
  public:
    /** Deliver callback: (source node, frame bytes). */
    using DeliverFn =
        std::function<void(NodeId, const std::vector<std::uint8_t> &)>;

    Fabric(EventQueue *queue, const NetSpec &spec, std::uint64_t seed);

    /** Register an endpoint. One callback per node id. */
    void attach(NodeId node, DeliverFn on_delivery);

    /**
     * Ship one frame. The frame serializes through `src`'s egress
     * queue at the configured bandwidth, crosses the link (latency +
     * jitter, possibly dropped / reordered / duplicated), and is
     * delivered to `dst`'s callback via the event queue. Returns the
     * cycle the frame leaves `src`'s NIC, dropped or not.
     */
    Cycles send(NodeId src, NodeId dst, std::vector<std::uint8_t> frame);

    const NetSpec &spec() const { return spec_; }
    const FabricStats &stats() const { return stats_; }

    /** Render the wire log one event per line (regression compare). */
    std::string wireLogText() const;

    /** The per-link RNG stream seed: splitmix64(seed, src, dst). */
    static std::uint64_t linkSeed(std::uint64_t seed, NodeId src,
                                  NodeId dst);

  private:
    struct Link {
        Rng rng;
        explicit Link(std::uint64_t seed) : rng(seed) {}
    };
    struct Endpoint {
        DeliverFn deliver;
        Cycles egress_busy_until = 0;  ///< NIC serialization horizon
    };

    Link &linkFor(NodeId src, NodeId dst);
    void scheduleDelivery(NodeId src, NodeId dst, Cycles depart,
                          Cycles arrive, std::uint64_t frame_id,
                          std::vector<std::uint8_t> frame);
    void logEvent(Cycles at, WireEvent::Kind kind, NodeId src,
                  NodeId dst, std::uint64_t frame_id,
                  std::size_t bytes);

    EventQueue *queue_;
    NetSpec spec_;
    std::uint64_t seed_;
    std::map<NodeId, Endpoint> endpoints_;
    std::map<std::pair<NodeId, NodeId>, Link> links_;
    FabricStats stats_;
    std::vector<WireEvent> wire_log_;
    std::uint64_t next_frame_id_ = 1;
};

}  // namespace exist::net

#endif  // EXIST_NET_FABRIC_H
