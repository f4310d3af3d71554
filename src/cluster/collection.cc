#include "cluster/collection.h"

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/session_payload.h"
#include "obs/trace_plane.h"
#include "util/rng.h"

namespace exist {

namespace {

/** One session's shipment: where it came from and where it lands. */
struct Shipment {
    NodeId node = kInvalidId;
    std::uint64_t stream = 0;
    ExperimentResult *result = nullptr;
};

/**
 * The shared engine: ship each result's collection-borne slice from
 * its node agent to the ingest, drive the event loop to completion
 * (or the virtual deadline), re-apply what arrived.
 */
CollectionOutcome
runCollection(const net::NetSpec &spec, std::uint64_t seed,
              const std::string &app, std::vector<Shipment> shipments,
              metrics::Registry *registry)
{
    CollectionOutcome out;

    EXIST_SPAN("collect.run", obs::corrId(seed, shipments.size()));
    EventQueue q;
    net::Fabric fabric(&q, spec, seed);
    Ingest ingest(&q, &fabric, kCollectorNode);
    fabric.attach(kCollectorNode,
                  [&ingest](NodeId src,
                            const std::vector<std::uint8_t> &bytes) {
                      ingest.onFrame(src, bytes);
                  });

    std::map<NodeId, std::unique_ptr<agent::TraceAgent>> agents;
    for (const Shipment &sh : shipments) {
        auto it = agents.find(sh.node);
        if (it == agents.end()) {
            auto a = std::make_unique<agent::TraceAgent>(
                &q, &fabric, sh.node, kCollectorNode);
            agent::TraceAgent *raw = a.get();
            fabric.attach(sh.node,
                          [raw](NodeId src,
                                const std::vector<std::uint8_t> &b) {
                              raw->onFrame(src, b);
                          });
            it = agents.emplace(sh.node, std::move(a)).first;
        }
        SessionPayload p = SessionPayload::take(sh.result, app);
        it->second->ship(sh.stream, p.encode(), p.encodeSummary());
    }

    const Cycles deadline =
        q.now() + secondsToCycles(kCollectDeadlineSeconds);
    while (!q.empty() && q.now() < deadline)
        q.step();

    for (const Shipment &sh : shipments) {
        IngestedStream st = ingest.take(sh.node, sh.stream);
        SessionPayload p;
        if (st.complete &&
            SessionPayload::decode(st.payload.data(),
                                   st.payload.size(), &p)) {
            std::move(p).applyTo(sh.result);
            out.complete += 1;
        } else if (SessionPayload::decodeSummary(st.summary, &p)) {
            p.applySummaryTo(sh.result);
            out.degraded += 1;
        } else {
            out.degraded += 1;  // nothing arrived before the deadline
        }
    }

    for (const auto &[node, a] : agents) {
        agent::AgentStats s = a->stats();
        out.agents.batches_sent += s.batches_sent;
        out.agents.retransmits += s.retransmits;
        out.agents.backoffs += s.backoffs;
        out.agents.acks_received += s.acks_received;
        out.agents.dup_acks += s.dup_acks;
        out.agents.batches_spilled += s.batches_spilled;
        out.agents.streams_degraded += s.streams_degraded;
    }
    out.ingest = ingest.stats();
    out.fabric = fabric.stats();
    if (spec.record_wire_log)
        out.wire_log = fabric.wireLogText();

    if (registry != nullptr) {
        metrics::Scope net(*registry, "net");
        const net::FabricStats &f = out.fabric;
        net.counter("frames_sent").add(f.frames_sent);
        net.counter("frames_dropped").add(f.frames_dropped);
        net.counter("frames_duplicated").add(f.frames_duplicated);
        net.counter("frames_reordered").add(f.frames_reordered);
        net.counter("frames_delivered").add(f.frames_delivered);
        net.counter("bytes_on_wire").add(f.bytes_on_wire);
        metrics::Histogram &h = net.histogram("delivery_us");
        for (double us : f.delivery_us)
            h.record(static_cast<std::uint64_t>(us));
        net.counter("ingest_batches_accepted")
            .add(out.ingest.batches_accepted);
        net.counter("ingest_batches_duplicate")
            .add(out.ingest.batches_duplicate);
        net.counter("ingest_batches_refused")
            .add(out.ingest.batches_refused);
        net.counter("ingest_acks_sent").add(out.ingest.acks_sent);
        net.counter("streams_complete").add(out.complete);
        net.counter("streams_degraded").add(out.degraded);

        metrics::Scope ag(*registry, "agent");
        ag.counter("batches_sent").add(out.agents.batches_sent);
        ag.counter("retransmits").add(out.agents.retransmits);
        ag.counter("backoffs").add(out.agents.backoffs);
        ag.counter("acks_received").add(out.agents.acks_received);
        ag.counter("dup_acks").add(out.agents.dup_acks);
        ag.counter("batches_spilled").add(out.agents.batches_spilled);
        ag.counter("streams_degraded")
            .add(out.agents.streams_degraded);
    }
    return out;
}

}  // namespace

std::uint64_t
collectSeed(std::uint64_t cluster_seed, std::uint64_t request_id)
{
    // splitmix64 over (seed, id), domain-separated from the planning
    // stream so collection faults and worker selection stay
    // statistically independent.
    std::uint64_t sm = cluster_seed ^ 0x636f6c6cULL;  // "coll"
    std::uint64_t base = splitmix64(sm);
    sm = base ^ (request_id * 0x9e3779b97f4a7c15ULL);
    return splitmix64(sm);
}

CollectionOutcome
collectPlan(RequestPlan &plan, std::uint64_t cluster_seed,
            metrics::Registry *registry)
{
    const net::NetSpec spec = plan.req->netSpec();
    if (plan.sessions.empty() || !spec.enabled)
        return {};
    std::vector<Shipment> shipments;
    shipments.reserve(plan.sessions.size());
    for (std::size_t i = 0; i < plan.sessions.size(); ++i)
        shipments.push_back(Shipment{plan.sessions[i].node, i,
                                     &plan.sessions[i].result});
    return runCollection(spec, collectSeed(cluster_seed, plan.req->id),
                         plan.req->app, std::move(shipments), registry);
}

CollectionOutcome
collectSessionResult(ExperimentResult &result,
                     const net::NetSpec &spec, std::uint64_t seed,
                     const std::string &app,
                     metrics::Registry *registry)
{
    if (!spec.enabled)
        return {};
    return runCollection(spec, seed, app,
                         {Shipment{0, 0, &result}}, registry);
}

}  // namespace exist
