#include "net/fabric.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/trace_plane.h"
#include "util/logging.h"

namespace exist::net {

namespace {

/** Sim node id as recorded in obs events (16-bit field; the master's
 *  sentinel node collapses onto 0xffff, named "sim master" at export). */
std::uint32_t
obsNode(NodeId node)
{
    auto v = static_cast<std::uint64_t>(static_cast<std::int64_t>(node));
    return v >= 0xffff ? 0xffffu : static_cast<std::uint32_t>(v);
}

}  // namespace

Fabric::Fabric(EventQueue *queue, const NetSpec &spec,
               std::uint64_t seed)
    : queue_(queue), spec_(spec), seed_(seed)
{
}

std::uint64_t
Fabric::linkSeed(std::uint64_t seed, NodeId src, NodeId dst)
{
    // Two dependent splitmix64 steps over (seed, src, dst): adjacent
    // links land in statistically independent streams, and the stream
    // depends only on the key — never on link creation order.
    std::uint64_t sm =
        seed ^ (static_cast<std::uint64_t>(static_cast<std::int64_t>(src)) *
                0x9e3779b97f4a7c15ULL);
    std::uint64_t base = splitmix64(sm);
    sm = base ^ (static_cast<std::uint64_t>(static_cast<std::int64_t>(dst)) *
                 0xd1342543de82ef95ULL);
    return splitmix64(sm);
}

void
Fabric::attach(NodeId node, DeliverFn on_delivery)
{
    Endpoint &ep = endpoints_[node];
    EXIST_ASSERT(!ep.deliver, "fabric node %d attached twice", node);
    ep.deliver = std::move(on_delivery);
}

Fabric::Link &
Fabric::linkFor(NodeId src, NodeId dst)
{
    auto key = std::make_pair(src, dst);
    auto it = links_.find(key);
    if (it == links_.end())
        it = links_.emplace(key, Link(linkSeed(seed_, src, dst))).first;
    return it->second;
}

void
Fabric::logEvent(Cycles at, WireEvent::Kind kind, NodeId src,
                 NodeId dst, std::uint64_t frame_id, std::size_t bytes)
{
    if (!spec_.record_wire_log)
        return;
    wire_log_.push_back(WireEvent{at, kind, src, dst, frame_id,
                                  static_cast<std::uint32_t>(bytes)});
}

Cycles
Fabric::send(NodeId src, NodeId dst, std::vector<std::uint8_t> frame)
{
    auto src_it = endpoints_.find(src);
    auto dst_it = endpoints_.find(dst);
    EXIST_ASSERT(src_it != endpoints_.end(), "send from unattached %d",
                 src);
    EXIST_ASSERT(dst_it != endpoints_.end(), "send to unattached %d",
                 dst);
    Link &link = linkFor(src, dst);
    const std::uint64_t frame_id = next_frame_id_++;

    // NIC serialization: the egress queue drains at bandwidth_gbps,
    // so back-to-back sends from one node queue behind each other.
    double gbps = spec_.bandwidth_gbps > 0 ? spec_.bandwidth_gbps : 10.0;
    double wire_us =
        static_cast<double>(frame.size()) * 8.0 / (gbps * 1000.0);
    Cycles depart =
        std::max(queue_->now(), src_it->second.egress_busy_until) +
        usToCycles(wire_us);
    src_it->second.egress_busy_until = depart;

    stats_.frames_sent += 1;
    stats_.bytes_on_wire += frame.size();
    logEvent(queue_->now(), WireEvent::Kind::kSend, src, dst, frame_id,
             frame.size());
    // Sim-clock telemetry: the corr id derives only from (fabric seed,
    // link, frame counter), so traces of the same seed are identical.
    const std::uint64_t obs_corr =
        obs::corrId(seed_, linkSeed(0, src, dst), frame_id);
    obs::simInstant("net.send", obs_corr, queue_->now(), obsNode(src),
                    static_cast<std::uint32_t>(frame.size()));

    if (spec_.drop_rate > 0 && link.rng.bernoulli(spec_.drop_rate)) {
        stats_.frames_dropped += 1;
        logEvent(depart, WireEvent::Kind::kDrop, src, dst, frame_id,
                 frame.size());
        obs::simInstant("net.drop", obs_corr, depart, obsNode(src));
        return depart;
    }

    Cycles arrive = depart + usToCycles(spec_.link_latency_us);
    if (spec_.jitter_us > 0)
        arrive += usToCycles(link.rng.uniform(0.0, spec_.jitter_us));
    if (spec_.reorder_rate > 0 &&
        link.rng.bernoulli(spec_.reorder_rate)) {
        stats_.frames_reordered += 1;
        arrive +=
            usToCycles(link.rng.uniform(0.0, spec_.reorder_window_us));
    }

    bool duplicate = spec_.duplicate_rate > 0 &&
                     link.rng.bernoulli(spec_.duplicate_rate);
    if (duplicate) {
        stats_.frames_duplicated += 1;
        Cycles dup_arrive =
            arrive + usToCycles(link.rng.uniform(
                         0.0, spec_.jitter_us > 0 ? spec_.jitter_us
                                                  : 1.0));
        logEvent(depart, WireEvent::Kind::kDuplicate, src, dst,
                 frame_id, frame.size());
        scheduleDelivery(src, dst, queue_->now(), dup_arrive, frame_id,
                         frame);  // copy; the original moves below
    }
    scheduleDelivery(src, dst, queue_->now(), arrive, frame_id,
                     std::move(frame));
    return depart;
}

void
Fabric::scheduleDelivery(NodeId src, NodeId dst, Cycles depart,
                         Cycles arrive, std::uint64_t frame_id,
                         std::vector<std::uint8_t> frame)
{
    queue_->schedule(
        arrive, [this, src, dst, depart, arrive, frame_id,
                 frame = std::move(frame)]() {
            Endpoint &dep = endpoints_[dst];
            stats_.frames_delivered += 1;
            stats_.delivery_us.push_back(
                cyclesToSeconds(arrive - depart) * 1e6);
            logEvent(arrive, WireEvent::Kind::kDeliver, src, dst,
                     frame_id, frame.size());
            // Runs on the event loop: emission is lock-free by design
            // (the analyzer's event-block check keeps it that way).
            std::uint64_t obs_corr =
                obs::corrId(seed_, linkSeed(0, src, dst), frame_id);
            obs::simSpan("net.frame", obs_corr, depart, arrive - depart,
                         obsNode(src));
            obs::simInstant("net.deliver", obs_corr, arrive,
                            obsNode(dst),
                            static_cast<std::uint32_t>(frame.size()));
            if (dep.deliver)
                dep.deliver(src, frame);
        });
}

std::string
Fabric::wireLogText() const
{
    std::string out;
    out.reserve(wire_log_.size() * 48);
    for (const WireEvent &e : wire_log_) {
        char line[96];
        const char *kind = "?";
        switch (e.kind) {
          case WireEvent::Kind::kSend: kind = "SEND"; break;
          case WireEvent::Kind::kDrop: kind = "DROP"; break;
          case WireEvent::Kind::kDuplicate: kind = "DUP "; break;
          case WireEvent::Kind::kDeliver: kind = "DLVR"; break;
        }
        std::snprintf(line, sizeof line,
                      "%llu %s %d->%d #%llu %u\n",
                      (unsigned long long)e.at, kind, e.src, e.dst,
                      (unsigned long long)e.frame_id, e.bytes);
        out += line;
    }
    return out;
}

}  // namespace exist::net
