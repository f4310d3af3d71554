/**
 * @file
 * Collection-plane throughput: ship one decoded session's payload
 * from a node agent to the master ingest over the simulated fabric,
 * swept across loss rates {0, 0.01, 0.05, 0.10} (with reordering and
 * a small duplicate rate at every point). Reports wall-clock
 * transfers/s, wire bytes vs payload bytes (goodput), retransmits and
 * virtual completion time, and verifies on every transfer that the
 * re-applied result is byte-identical to the in-process baseline —
 * the repo's headline invariant extended over the wire.
 *
 * Besides the human-readable table, each loss rate emits one
 * machine-readable JSON line (prefix "JSON ") so CI can track the
 * trajectory via tools/bench_trends.py --set net:
 *   JSON {"bench":"collect_throughput","loss":0.05,...}
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/collection.h"
#include "cluster/session_payload.h"
#include "util/rng.h"
#include "common.h"

using namespace exist;
using namespace exist::bench;

namespace {

ExperimentSpec
sessionSpec()
{
    ExperimentSpec spec = computeSpec("Cache", "EXIST", 0.3);
    spec.decode = true;
    spec.ground_truth = true;
    spec.keep_traces = true;
    spec.seed = 11;
    return spec;
}

bool
resultsIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    if (a.decoded_branches != b.decoded_branches ||
        a.accuracy_wall != b.accuracy_wall ||
        a.decoded_function_insns != b.decoded_function_insns ||
        a.decoded_function_entries != b.decoded_function_entries ||
        a.truth_function_insns != b.truth_function_insns ||
        a.raw_traces.size() != b.raw_traces.size())
        return false;
    for (std::size_t i = 0; i < a.raw_traces.size(); ++i)
        if (a.raw_traces[i].core != b.raw_traces[i].core ||
            a.raw_traces[i].thread != b.raw_traces[i].thread ||
            a.raw_traces[i].bytes != b.raw_traces[i].bytes)
            return false;
    return true;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

int
main()
{
    printBanner("Collection-plane throughput: agent -> fabric -> "
                "ingest across loss rates");

    // One decoded session, reused as the payload for every transfer.
    // A single smoke session serializes to well under one batch, so
    // pad it with deterministic synthetic trace bytes up to a
    // datacenter-session size — the transport treats payload bytes as
    // opaque, and a multi-batch transfer is what exercises windows,
    // credit and retransmission.
    ExperimentResult baseline = Testbed::run(sessionSpec());
    std::uint64_t target_bytes = static_cast<std::uint64_t>(
        256.0 * 1024.0 * periodScale());
    if (target_bytes < 64 * 1024)
        target_bytes = 64 * 1024;
    auto encodedBytes = [&baseline] {
        ExperimentResult copy = baseline;
        return SessionPayload::take(&copy, "Cache").encode().size();
    };
    Rng pad_rng(42);
    while (encodedBytes() < target_bytes) {
        CollectedTrace t;
        t.core = static_cast<CoreId>(baseline.raw_traces.size() % 4);
        t.bytes.resize(16 * 1024);
        for (auto &b : t.bytes)
            b = static_cast<std::uint8_t>(pad_rng.next());
        baseline.raw_traces.push_back(std::move(t));
    }
    std::uint64_t payload_bytes = encodedBytes();

    int iters = static_cast<int>(20.0 * periodScale() + 0.5);
    if (iters < 2)
        iters = 2;
    std::printf("payload: %.1f KB serialized (%zu raw traces), "
                "%d transfers per loss rate (scale %.2f)\n\n",
                payload_bytes / 1024.0, baseline.raw_traces.size(),
                iters, periodScale());

    TableWriter table({"Loss", "Transfers/s", "Wire(KB)", "Goodput",
                       "Retransmits", "Virtual(ms)", "Identical"});
    bool all_identical = true;

    for (double loss : {0.0, 0.01, 0.05, 0.10}) {
        net::NetSpec spec;
        spec.enabled = true;
        spec.drop_rate = loss;
        spec.reorder_rate = 0.1;
        spec.duplicate_rate = 0.01;

        std::uint64_t wire_bytes = 0, retransmits = 0, degraded = 0;
        double virtual_ms = 0.0;
        bool identical = true;
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i) {
            ExperimentResult r = baseline;
            CollectionOutcome co = collectSessionResult(
                r, spec, collectSeed(2024, static_cast<std::uint64_t>(i)),
                "Cache", nullptr);
            wire_bytes += co.fabric.bytes_on_wire;
            retransmits += co.agents.retransmits;
            degraded += co.degraded;
            if (!co.fabric.delivery_us.empty())
                virtual_ms +=
                    co.fabric.delivery_us.back() / 1000.0 / iters;
            identical = identical && resultsIdentical(r, baseline);
        }
        double s = secondsSince(t0);
        double tps = iters / s;
        double goodput =
            wire_bytes > 0
                ? static_cast<double>(payload_bytes) * iters /
                      static_cast<double>(wire_bytes)
                : 0.0;
        all_identical = all_identical && identical && degraded == 0;

        table.row({TableWriter::pct(loss), TableWriter::num(tps),
                   TableWriter::num(wire_bytes / 1024.0 / iters),
                   TableWriter::pct(goodput),
                   std::to_string(retransmits),
                   TableWriter::num(virtual_ms),
                   identical && degraded == 0 ? "yes" : "NO"});
        std::printf("JSON {\"bench\":\"collect_throughput\","
                    "\"loss\":%.2f,\"transfers\":%d,\"seconds\":%.6f,"
                    "\"transfers_per_sec\":%.3f,\"payload_bytes\":%llu,"
                    "\"wire_bytes\":%llu,\"goodput\":%.4f,"
                    "\"retransmits\":%llu,\"virtual_ms\":%.3f,"
                    "\"degraded\":%llu,\"identical\":%s}\n",
                    loss, iters, s, tps,
                    (unsigned long long)payload_bytes,
                    (unsigned long long)(wire_bytes / iters), goodput,
                    (unsigned long long)retransmits, virtual_ms,
                    (unsigned long long)degraded,
                    identical ? "true" : "false");
    }

    std::printf("\n");
    table.print();
    std::printf("\nwire bytes grow with loss (retransmits); the "
                "re-applied result stays byte-identical at every "
                "rate the retry budget covers\n");
    if (!all_identical) {
        std::fputs("collection diverged from in-process delivery!\n",
                   stderr);
        return 1;
    }
    return 0;
}
