/**
 * @file
 * Decode fast-path equivalence (DESIGN.md §11): the BlockCache +
 * TNT-run memo must be bit-identical to the cache-off reference for
 * every memo window size, on a service session traced with CYC
 * packets and on two compute sessions traced without them, with path
 * recording on, and across warm memo-pool reuse. Also exercises one
 * BlockCache and one TntMemoPool shared by concurrent decoders — the
 * file is part of the concurrency suite so that runs under TSan.
 */
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "analysis/testbed.h"
#include "decode/block_cache.h"
#include "decode/flow_reconstructor.h"

namespace exist {
namespace {

void
expectSameDecode(const DecodedTrace &a, const DecodedTrace &b)
{
    EXPECT_EQ(a.branches_decoded, b.branches_decoded);
    EXPECT_EQ(a.insns_decoded, b.insns_decoded);
    EXPECT_EQ(a.function_insns, b.function_insns);
    EXPECT_EQ(a.function_entries, b.function_entries);
    EXPECT_EQ(a.block_path, b.block_path);
    EXPECT_EQ(a.ptwrites, b.ptwrites);
    EXPECT_EQ(a.tnt_bits_consumed, b.tnt_bits_consumed);
    EXPECT_EQ(a.tips_consumed, b.tips_consumed);
    EXPECT_EQ(a.decode_errors, b.decode_errors);
    EXPECT_EQ(a.resyncs, b.resyncs);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (std::size_t i = 0; i < a.segments.size(); ++i) {
        EXPECT_EQ(a.segments[i].start_time, b.segments[i].start_time);
        EXPECT_EQ(a.segments[i].end_time, b.segments[i].end_time);
        EXPECT_EQ(a.segments[i].first_offset,
                  b.segments[i].first_offset);
        EXPECT_EQ(a.segments[i].branches, b.segments[i].branches);
    }
}

/** The traced buffers every test decodes (one session, collected
 *  once). */
const std::vector<CollectedTrace> &
sessionTraces()
{
    static const std::vector<CollectedTrace> traces = [] {
        ExperimentSpec spec;
        spec.node.num_cores = 8;
        spec.workloads.push_back(WorkloadSpec{
            .app = "mc", .target = true, .closed_clients = 8});
        spec.backend = "EXIST";
        spec.session.period = secondsToCycles(0.12);
        spec.warmup = secondsToCycles(0.03);
        spec.keep_traces = true;
        return Testbed::run(spec).raw_traces;
    }();
    return traces;
}

/** A short 4-core session of a compute app traced without CYC
 *  packets: the control-flow-only configuration, whose long TNT
 *  stretches are what the memo is for. */
std::vector<CollectedTrace>
cycOffTraces(const std::string &app)
{
    ExperimentSpec spec;
    spec.node.num_cores = 4;
    WorkloadSpec w{.app = app, .target = true};
    w.workers = 4;
    spec.workloads.push_back(std::move(w));
    spec.backend = "EXIST";
    spec.session.period = secondsToCycles(0.04);
    spec.session.cyc_timing = false;
    spec.warmup = secondsToCycles(0.03);
    spec.keep_traces = true;
    return Testbed::run(spec).raw_traces;
}

DecodeOptions
offOptions()
{
    DecodeOptions o;
    o.block_cache = false;
    o.tnt_memo_bits = 0;
    return o;
}

TEST(DecodeCache, OnOffIdenticalAcrossMemoBits)
{
    // mc under service load with CYC on; lbm (loop-heavy: long,
    // strongly biased TNT stretches) and ex (branchy and return-heavy,
    // so TIPs bound the memo runs) traced without CYC. Each must also
    // hit the memo at the default window size.
    const std::vector<CollectedTrace> lbm = cycOffTraces("lbm");
    const std::vector<CollectedTrace> ex = cycOffTraces("ex");
    const struct {
        std::string app;
        const std::vector<CollectedTrace> *traces;
    } inputs[] = {{"mc", &sessionTraces()}, {"lbm", &lbm}, {"ex", &ex}};
    for (const auto &in : inputs) {
        SCOPED_TRACE(in.app);
        ASSERT_FALSE(in.traces->empty());
        auto bin = Testbed::binaryForApp(in.app);
        FlowReconstructor off_rec(bin.get(), offOptions());
        FlowReconstructor default_rec(bin.get());
        std::uint64_t default_hits = 0;
        for (const CollectedTrace &ct : *in.traces) {
            const DecodedTrace ref = off_rec.decode(ct.bytes);
            for (int k : {0, 1, 4, 8, 16}) {
                DecodeOptions on;
                on.tnt_memo_bits = k;
                FlowReconstructor on_rec(bin.get(), on);
                expectSameDecode(on_rec.decode(ct.bytes), ref);
            }
            const DecodedTrace dt = default_rec.decode(ct.bytes);
            expectSameDecode(dt, ref);
            default_hits += dt.cache_stats.memo_hits;
        }
        EXPECT_GT(default_hits, 0u);
    }
}

TEST(DecodeCache, RecordPathIdenticalOnOff)
{
    const auto &traces = sessionTraces();
    ASSERT_FALSE(traces.empty());
    auto bin = Testbed::binaryForApp("mc");
    DecodeOptions off = offOptions();
    off.record_path = true;
    DecodeOptions on;
    on.record_path = true;  // disables the memo, keeps the BlockCache
    FlowReconstructor off_rec(bin.get(), off);
    FlowReconstructor on_rec(bin.get(), on);
    const CollectedTrace &ct = traces.front();
    const DecodedTrace a = off_rec.decode(ct.bytes);
    const DecodedTrace b = on_rec.decode(ct.bytes);
    EXPECT_FALSE(a.block_path.empty());
    expectSameDecode(b, a);
}

TEST(DecodeCache, WarmMemoPoolReuseIsIdentical)
{
    const auto &traces = sessionTraces();
    ASSERT_FALSE(traces.empty());
    auto bin = Testbed::binaryForApp("mc");
    const CollectedTrace &ct = traces.front();
    FlowReconstructor rec(bin.get());
    const DecodedTrace first = rec.decode(ct.bytes);
    const DecodedTrace second = rec.decode(ct.bytes);
    expectSameDecode(second, first);
    // The second decode acquires the first's memo from the pool: same
    // bytes, so every window it re-replays is already resident.
    EXPECT_GT(second.cache_stats.memo_hits, 0u);
    EXPECT_LE(second.cache_stats.memo_misses,
              first.cache_stats.memo_misses);
}

TEST(DecodeCache, SharedBlockCacheAcrossThreads)
{
    const auto &traces = sessionTraces();
    ASSERT_FALSE(traces.empty());
    auto bin = Testbed::binaryForApp("mc");
    // One reconstructor: all threads read its BlockCache and recycle
    // memos through its internally-locked pool.
    FlowReconstructor rec(bin.get());
    std::vector<DecodedTrace> serial;
    for (const CollectedTrace &ct : traces)
        serial.push_back(rec.decode(ct.bytes));

    std::vector<DecodedTrace> parallel(traces.size());
    std::vector<std::thread> workers;
    const std::size_t nthreads = std::min<std::size_t>(4, traces.size());
    for (std::size_t t = 0; t < nthreads; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < traces.size(); i += nthreads)
                parallel[i] = rec.decode(traces[i].bytes);
        });
    }
    for (std::thread &w : workers)
        w.join();
    for (std::size_t i = 0; i < traces.size(); ++i)
        expectSameDecode(parallel[i], serial[i]);
}

}  // namespace
}  // namespace exist
