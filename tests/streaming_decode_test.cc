/**
 * @file
 * Streaming decode pipeline correctness: FlowStream must produce
 * bit-identical results to the batch FlowReconstructor for any chunking
 * of the byte stream; the StreamingDecoder must match ParallelDecoder
 * for any region size, publish interleaving and worker count; and the
 * Testbed streaming path must report exactly the batch path's decode
 * fields and behaviour report, with the result's decode equal to a
 * serial decode of its raw traces. Labelled `concurrency` so the suite
 * runs under TSan.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/behavior_report.h"
#include "analysis/testbed.h"
#include "decode/flow_reconstructor.h"
#include "decode/parallel_decoder.h"
#include "decode/streaming_decoder.h"
#include "runtime/thread_pool.h"

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

/** One multi-core traced session whose buffers the tests stream. */
ExperimentSpec
sessionSpec()
{
    ExperimentSpec spec;
    spec.node.num_cores = 8;
    spec.workloads.push_back(WorkloadSpec{
        .app = "mc", .target = true, .closed_clients = 8});
    spec.backend = "EXIST";
    spec.session.period = secondsToCycles(0.12);
    spec.warmup = secondsToCycles(0.03);
    spec.decode = true;
    spec.keep_traces = true;
    return spec;
}

/** Split [0, n) into random-sized chunks (at least 1 byte each). */
std::vector<std::size_t>
randomChunks(std::size_t n, std::uint32_t seed, std::size_t max_chunk)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> dist(1, max_chunk);
    std::vector<std::size_t> sizes;
    std::size_t placed = 0;
    while (placed < n) {
        std::size_t sz = std::min(dist(rng), n - placed);
        sizes.push_back(sz);
        placed += sz;
    }
    return sizes;
}

TEST(RegionQueue, FifoAndCloseDrain)
{
    RegionQueue q(8);
    for (std::uint64_t i = 0; i < 5; ++i) {
        TraceRegion r;
        r.core = 1;
        r.seq = i;
        r.bytes = {static_cast<std::uint8_t>(i)};
        EXPECT_TRUE(q.push(std::move(r)));
    }
    q.close();
    // Pending regions still drain after close, in FIFO order.
    TraceRegion out;
    for (std::uint64_t i = 0; i < 5; ++i) {
        ASSERT_TRUE(q.pop(out));
        EXPECT_EQ(out.seq, i);
        EXPECT_EQ(out.bytes[0], static_cast<std::uint8_t>(i));
    }
    EXPECT_FALSE(q.pop(out));  // closed and drained
    // Push after close is rejected.
    EXPECT_FALSE(q.push(TraceRegion{}));
    EXPECT_EQ(q.highWater(), 5u);
}

TEST(RegionQueue, BackpressureBoundsDepth)
{
    RegionQueue q(2);
    const std::uint64_t kRegions = 64;
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < kRegions; ++i) {
            TraceRegion r;
            r.core = 0;
            r.seq = i;
            ASSERT_TRUE(q.push(std::move(r)));
        }
        q.close();
    });
    // Slow consumer: the producer must block rather than let the queue
    // grow past its capacity.
    TraceRegion out;
    std::uint64_t next = 0;
    while (q.pop(out)) {
        EXPECT_EQ(out.seq, next++);
        std::this_thread::yield();
    }
    producer.join();
    EXPECT_EQ(next, kRegions);
    EXPECT_LE(q.highWater(), 2u);
}

TEST(FlowStream, ChunkedEqualsBatchUnderRandomizedSplits)
{
    ExperimentResult r = Testbed::run(sessionSpec());
    ASSERT_GT(r.raw_traces.size(), 1u);

    auto binary = Testbed::binaryForApp("mc");
    DecodeOptions opts;
    opts.record_path = true;
    FlowReconstructor rec(binary.get(), opts);

    for (const CollectedTrace &ct : r.raw_traces) {
        SCOPED_TRACE("core " + std::to_string(ct.core));
        DecodedTrace batch = rec.decode(ct.bytes);
        // Several chunkings per buffer, from single bytes (every packet
        // split) to region-sized pieces.
        for (std::uint32_t seed : {1u, 2u, 3u}) {
            for (std::size_t max_chunk : {std::size_t{1},
                                          std::size_t{7},
                                          std::size_t{4096}}) {
                SCOPED_TRACE("seed=" + std::to_string(seed) +
                             " max_chunk=" + std::to_string(max_chunk));
                FlowStream stream = rec.stream();
                std::size_t off = 0;
                for (std::size_t sz : randomChunks(
                         ct.bytes.size(), seed, max_chunk)) {
                    stream.append(ct.bytes.data() + off, sz);
                    off += sz;
                }
                expectSameDecode(stream.finish(), batch);
            }
        }
    }
}

TEST(FlowStream, EmptyStream)
{
    auto binary = Testbed::binaryForApp("mc");
    FlowStream stream(binary.get());
    DecodedTrace dt = stream.finish();
    EXPECT_EQ(dt.branches_decoded, 0u);
    EXPECT_TRUE(dt.segments.empty());
    EXPECT_TRUE(stream.finished());
}

TEST(StreamingDecoder, MatchesParallelDecoderAcrossThreadsAndChunks)
{
    ExperimentResult r = Testbed::run(sessionSpec());
    ASSERT_GT(r.raw_traces.size(), 1u);

    auto binary = Testbed::binaryForApp("mc");
    DecodeOptions opts;
    opts.record_path = true;
    ParallelDecoder batch(binary.get(), opts, 0);
    auto baseline = batch.decodeAll(r.raw_traces);

    for (int threads : {1, 2, 8}) {
        for (std::uint32_t seed : {11u, 12u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " seed=" + std::to_string(seed));
            StreamingDecoder sd(binary.get(), opts, threads,
                                /*queue_capacity=*/4);
            for (const CollectedTrace &ct : r.raw_traces)
                sd.addCore(ct.core);

            // Publish every buffer in random-sized regions, round-robin
            // across cores (arrival interleaving a live session would
            // produce).
            struct Cursor {
                std::vector<std::size_t> chunks;
                std::size_t next_chunk = 0;
                std::size_t off = 0;
            };
            std::vector<Cursor> cursors(r.raw_traces.size());
            for (std::size_t i = 0; i < r.raw_traces.size(); ++i)
                cursors[i].chunks = randomChunks(
                    r.raw_traces[i].bytes.size(), seed + (std::uint32_t)i,
                    8192);
            bool progress = true;
            while (progress) {
                progress = false;
                for (std::size_t i = 0; i < cursors.size(); ++i) {
                    Cursor &c = cursors[i];
                    if (c.next_chunk >= c.chunks.size())
                        continue;
                    std::size_t sz = c.chunks[c.next_chunk++];
                    sd.publish(r.raw_traces[i].core,
                               r.raw_traces[i].bytes.data() + c.off, sz);
                    c.off += sz;
                    progress = true;
                }
            }

            auto decoded = sd.finish();
            ASSERT_EQ(decoded.size(), baseline.size());
            for (std::size_t i = 0; i < decoded.size(); ++i) {
                SCOPED_TRACE("buffer " + std::to_string(i));
                EXPECT_EQ(decoded[i].first, baseline[i].first);
                expectSameDecode(decoded[i].second, baseline[i].second);
            }

            StreamingDecoder::Stats st = sd.stats();
            std::uint64_t total_bytes = 0;
            for (const CollectedTrace &ct : r.raw_traces)
                total_bytes += ct.bytes.size();
            EXPECT_EQ(st.bytes_published, total_bytes);
            EXPECT_GT(st.regions_published, r.raw_traces.size());
        }
    }
}

TEST(StreamingDecoder, ConcurrentPerCorePublishersWithStatsPoller)
{
    // Regression: inline publishing and finish() used to touch the
    // per-core FlowStream/stash without core_state.mu, so concurrent
    // publishers racing a stats poller were unsynchronized. Each core
    // now appends and finishes under its own lock; this TSan target
    // publishes every core from its own thread while a poller reads
    // stats(), then requires the batch decode byte-for-byte.
    ExperimentResult r = Testbed::run(sessionSpec());
    ASSERT_GT(r.raw_traces.size(), 1u);

    auto binary = Testbed::binaryForApp("mc");
    DecodeOptions opts;
    opts.record_path = true;
    ParallelDecoder batch(binary.get(), opts, 0);
    auto baseline = batch.decodeAll(r.raw_traces);

    for (int threads : {1, 2}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        StreamingDecoder sd(binary.get(), opts, threads,
                            /*queue_capacity=*/4);
        for (const CollectedTrace &ct : r.raw_traces)
            sd.addCore(ct.core);

        std::atomic<bool> done{false};
        std::thread poller([&]() {
            std::uint64_t last = 0;
            while (!done.load(std::memory_order_acquire)) {
                StreamingDecoder::Stats st = sd.stats();
                EXPECT_GE(st.bytes_published, last);
                last = st.bytes_published;
                std::this_thread::yield();
            }
        });

        std::vector<std::thread> publishers;
        publishers.reserve(r.raw_traces.size());
        for (const CollectedTrace &ct : r.raw_traces)
            publishers.emplace_back([&sd, &ct]() {
                std::size_t off = 0;
                for (std::size_t sz :
                     randomChunks(ct.bytes.size(), 21, 8192)) {
                    sd.publish(ct.core, ct.bytes.data() + off, sz);
                    off += sz;
                }
            });
        for (std::thread &t : publishers)
            t.join();
        done.store(true, std::memory_order_release);
        poller.join();

        auto decoded = sd.finish();
        ASSERT_EQ(decoded.size(), baseline.size());
        for (std::size_t i = 0; i < decoded.size(); ++i) {
            SCOPED_TRACE("buffer " + std::to_string(i));
            EXPECT_EQ(decoded[i].first, baseline[i].first);
            expectSameDecode(decoded[i].second, baseline[i].second);
        }
    }
}

TEST(StreamingDecoder, ThreadModesResolve)
{
    auto binary = Testbed::binaryForApp("mc");
    EXPECT_EQ(StreamingDecoder(binary.get(), {}, 1).threads(), 1);
    EXPECT_EQ(StreamingDecoder(binary.get(), {}, 3).threads(), 3);
    EXPECT_EQ(StreamingDecoder(binary.get(), {}, 0).threads(),
              ThreadPool::defaultThreads());
}

TEST(StreamingDecoder, AbandonedPipelineShutsDownCleanly)
{
    auto binary = Testbed::binaryForApp("mc");
    StreamingDecoder sd(binary.get(), {}, 2);
    sd.addCore(0);
    std::uint8_t byte = 0;
    sd.publish(0, &byte, 1);
    // Destructor without finish() must release the parked consumers.
}

/** A Testbed result's decode is the serial decode of its own raw
 *  traces, with every block path already released. */
void
expectDecodeOfRawTraces(const ExperimentResult &r)
{
    auto binary = Testbed::binaryForApp("mc");
    auto reference =
        ParallelDecoder(binary.get(), {}, 1).decodeAll(r.raw_traces);
    ASSERT_EQ(r.decoded.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        SCOPED_TRACE("buffer " + std::to_string(i));
        EXPECT_EQ(r.decoded[i].first, reference[i].first);
        EXPECT_TRUE(r.decoded[i].second.block_path.empty());
        expectSameDecode(r.decoded[i].second, reference[i].second);
    }
}

std::string
reportOf(const ExperimentResult &r)
{
    return BehaviorReport::synthesize(*Testbed::binaryForApp("mc"),
                                      r.decoded, r.switch_log);
}

TEST(StreamingTestbed, ResultsIdenticalToBatchAcrossConfigs)
{
    ExperimentSpec spec = sessionSpec();
    spec.record_paths = true;
    spec.ground_truth = true;
    spec.decode_threads = 1;
    ExperimentResult batch = Testbed::run(spec);
    EXPECT_FALSE(batch.streamed);
    EXPECT_GT(batch.decoded_branches, 0u);
    expectDecodeOfRawTraces(batch);
    const std::string batch_report = reportOf(batch);

    for (int threads : {1, 2, 8}) {
        for (std::uint64_t region_kb : {std::uint64_t{0},
                                        std::uint64_t{64}}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " region_kb=" + std::to_string(region_kb));
            ExperimentSpec s = spec;
            s.streaming = true;
            s.decode_threads = threads;
            s.stream_region_kb = region_kb;
            ExperimentResult stream = Testbed::run(s);
            EXPECT_TRUE(stream.streamed);
            EXPECT_GE(stream.report_latency_s, 0.0);
            EXPECT_EQ(stream.truth_branches, batch.truth_branches);
            EXPECT_EQ(stream.decoded_branches, batch.decoded_branches);
            EXPECT_EQ(stream.decode_errors, batch.decode_errors);
            EXPECT_EQ(stream.decoded_function_insns,
                      batch.decoded_function_insns);
            EXPECT_EQ(stream.decoded_function_entries,
                      batch.decoded_function_entries);
            EXPECT_DOUBLE_EQ(stream.accuracy_coverage,
                             batch.accuracy_coverage);
            EXPECT_DOUBLE_EQ(stream.accuracy_wall, batch.accuracy_wall);
            EXPECT_DOUBLE_EQ(stream.path_precision,
                             batch.path_precision);
            expectDecodeOfRawTraces(stream);
            EXPECT_EQ(reportOf(stream), batch_report);
            // Raw collection is non-destructive under streaming.
            ASSERT_EQ(stream.raw_traces.size(), batch.raw_traces.size());
            for (std::size_t i = 0; i < stream.raw_traces.size(); ++i) {
                EXPECT_EQ(stream.raw_traces[i].core,
                          batch.raw_traces[i].core);
                EXPECT_EQ(stream.raw_traces[i].bytes,
                          batch.raw_traces[i].bytes);
            }
        }
    }
}

TEST(StreamingTestbed, RingSessionsFallBackToBatch)
{
    ExperimentSpec spec = sessionSpec();
    spec.streaming = true;
    spec.session.ring_buffers = true;
    ExperimentResult r = Testbed::run(spec);
    EXPECT_FALSE(r.streamed);
    EXPECT_GT(r.decoded_branches, 0u);
}

}  // namespace
}  // namespace exist
