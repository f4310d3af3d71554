/**
 * @file
 * Self-observability overhead gate (DESIGN.md §14): the always-on
 * span plane must cost at most 1% of a decode, or it cannot be
 * always-on. Exits nonzero when it does not.
 *
 * The gate prices the plane instead of timing it. One decode of a
 * loop-heavy lbm session emits a few dozen events (the pool's
 * parallel_for span, a pool.task span and flow per task, a
 * decode.buffer span per buffer): about a microsecond of a
 * millisecond-long decode, a hundred times below the noise of timing
 * spans-on against spans-off decodes. So the gate multiplies the
 * events one decode emitted (an exact count) by the emit path's cost
 * in a tight loop, and divides by the spans-off decode time:
 *
 *     overhead = events x ns/event / spans-off decode time
 *
 * Both timings are the fastest of several repetitions.
 */
#include <chrono>
#include <cstdio>
#include <string>

#include "common.h"
#include "decode/parallel_decoder.h"
#include "obs/trace_plane.h"

using namespace exist;
using namespace exist::bench;

namespace {

constexpr double kMaxOverheadPct = 1.0;
constexpr int kThreads = 2;
constexpr int kReps = 9;
constexpr std::uint64_t kEmitsPerRep = 100'000;

/** Seconds of the fastest of kReps runs of `fn`: the repetition least
 *  polluted by scheduler noise. */
template <typename Fn>
double
fastest(Fn &&fn)
{
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        if (rep == 0 || s < best)
            best = s;
    }
    return best;
}

}  // namespace

int
main()
{
    printBanner("Self-trace overhead: the span plane's priced cost per "
                "decode (gate: <= 1%)");

    // Loop-heavy stencil profile: the decode-bound workload where any
    // per-unit-of-work cost shows up most directly.
    ExperimentSpec spec = computeSpec("lbm", "EXIST", 0.4, 4);
    spec.workloads.front().workers = 4;
    spec.keep_traces = true;
    spec.session.cyc_timing = false;
    ExperimentResult r = Testbed::run(spec);
    auto binary = Testbed::binaryForApp("lbm");
    if (r.raw_traces.empty()) {
        std::fputs("no trace buffers collected; aborting\n", stderr);
        return 1;
    }

    std::uint64_t bytes = 0;
    for (const CollectedTrace &ct : r.raw_traces)
        bytes += ct.bytes.size();

    // Count the events one decode emits. The decoder's pool is joined
    // when it goes out of scope, so each worker's last span end has
    // landed before the counter is read.
    obs::setEnabled(true);
    std::uint64_t segments = 0;
    const std::uint64_t events_before = obs::eventsRecorded();
    {
        ParallelDecoder counted(binary.get(), {}, kThreads);
        for (const auto &[core, dt] : counted.decodeAll(r.raw_traces))
            segments += dt.segments.size();
    }
    const std::uint64_t events = obs::eventsRecorded() - events_before;
    std::printf("collected %zu buffers, %.1f MB, %llu segments\n\n",
                r.raw_traces.size(), bytes / 1048576.0,
                (unsigned long long)segments);
    if (events == 0) {
        std::fputs("FAIL: the decode emitted no span events; there is "
                   "nothing to price\n",
                   stderr);
        return 1;
    }

    // The emit path's cost: instant events in a tight loop.
    double emit_s = fastest([] {
        for (std::uint64_t i = 0; i < kEmitsPerRep; ++i)
            obs::instant("selftrace_overhead.emit", i, i);
    });
    double ns_per_event = emit_s * 1e9 / static_cast<double>(kEmitsPerRep);

    // The decode the events ride on, with span recording off.
    obs::setEnabled(false);
    ParallelDecoder decoder(binary.get(), {}, kThreads);
    decoder.decodeAll(r.raw_traces);  // warm caches and memo pool
    double off_s = fastest([&] { decoder.decodeAll(r.raw_traces); });

    double span_ns = static_cast<double>(events) * ns_per_event;
    double overhead_pct = 100.0 * span_ns * 1e-9 / off_s;
    bool pass = overhead_pct <= kMaxOverheadPct;

    TableWriter table({"Threads", "Events", "ns/event", "Cost(us)",
                       "Decode(ms)", "Overhead"});
    table.row({std::to_string(kThreads), std::to_string(events),
               TableWriter::num(ns_per_event, 1),
               TableWriter::num(span_ns * 1e-3),
               TableWriter::num(off_s * 1e3),
               TableWriter::num(overhead_pct, 3) + "%"});
    table.print();

    if (!pass) {
        std::fprintf(stderr,
                     "FAIL: span overhead %.3f%% exceeds the %.1f%% "
                     "always-on budget\n",
                     overhead_pct, kMaxOverheadPct);
        return 1;
    }
    std::printf("\nPASS: span overhead %.3f%% within the %.1f%% "
                "always-on budget\n",
                overhead_pct, kMaxOverheadPct);
    return 0;
}
