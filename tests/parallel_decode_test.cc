/**
 * @file
 * ParallelDecoder correctness: decoding a multi-core session's buffers
 * across a pool must be bit-identical to the serial FlowReconstructor
 * path at every thread count — same segments, function profiles,
 * ptwrites and block paths, in the same (collection) order. Also
 * pins the Testbed decode fan-out: identical ExperimentResult decode
 * fields and behaviour report for decode_threads 1, 2 and 8, with the
 * result's decode equal to a serial decode of its raw traces.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/behavior_report.h"
#include "analysis/testbed.h"
#include "decode/flow_reconstructor.h"
#include "decode/parallel_decoder.h"
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

/** One multi-core traced session whose buffers the tests decode. */
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

TEST(ParallelDecode, BitIdenticalToSerialAcrossThreadCounts)
{
    ExperimentResult r = Testbed::run(sessionSpec());
    ASSERT_GT(r.raw_traces.size(), 1u)
        << "need a multi-core session to make parallelism meaningful";

    auto binary = Testbed::binaryForApp("mc");
    DecodeOptions opts;
    opts.record_path = true;  // include the memory-heavy path field

    FlowReconstructor serial(binary.get(), opts);
    std::vector<std::pair<CoreId, DecodedTrace>> baseline;
    for (const CollectedTrace &ct : r.raw_traces)
        baseline.emplace_back(ct.core, serial.decode(ct.bytes));

    for (int threads : {1, 2, 4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ParallelDecoder dec(binary.get(), opts, threads);
        auto decoded = dec.decodeAll(r.raw_traces);
        ASSERT_EQ(decoded.size(), baseline.size());
        for (std::size_t i = 0; i < decoded.size(); ++i) {
            SCOPED_TRACE("buffer " + std::to_string(i));
            // Merge order == collection order (stable core ids).
            EXPECT_EQ(decoded[i].first, baseline[i].first);
            expectSameDecode(decoded[i].second, baseline[i].second);
        }
    }
}

TEST(ParallelDecode, ThreadModesResolve)
{
    auto binary = Testbed::binaryForApp("mc");
    EXPECT_EQ(ParallelDecoder(binary.get(), {}, 1).threads(), 1);
    EXPECT_EQ(ParallelDecoder(binary.get(), {}, 4).threads(), 4);
    EXPECT_EQ(ParallelDecoder(binary.get(), {}, 0).threads(),
              ThreadPool::defaultThreads());
}

TEST(ParallelDecode, EmptyAndSingleBufferInputs)
{
    auto binary = Testbed::binaryForApp("mc");
    ParallelDecoder dec(binary.get(), {}, 4);
    EXPECT_TRUE(dec.decodeViews({}).empty());

    std::vector<std::uint8_t> empty_bytes;
    auto out = dec.decodeViews(
        {TraceBufferView{3, empty_bytes.data(), empty_bytes.size()}});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].first, 3);
    EXPECT_EQ(out[0].second.branches_decoded, 0u);
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

TEST(ParallelDecode, TestbedResultsIdenticalAcrossDecodeThreads)
{
    ExperimentSpec spec = sessionSpec();
    spec.record_paths = true;
    spec.ground_truth = true;

    spec.decode_threads = 1;
    ExperimentResult serial = Testbed::run(spec);
    expectDecodeOfRawTraces(serial);
    const std::string serial_report = reportOf(serial);

    for (int threads : {2, 8}) {
        SCOPED_TRACE("decode_threads=" + std::to_string(threads));
        spec.decode_threads = threads;
        ExperimentResult parallel = Testbed::run(spec);
        EXPECT_EQ(parallel.decoded_branches, serial.decoded_branches);
        EXPECT_EQ(parallel.decode_errors, serial.decode_errors);
        EXPECT_EQ(parallel.decoded_function_insns,
                  serial.decoded_function_insns);
        EXPECT_EQ(parallel.decoded_function_entries,
                  serial.decoded_function_entries);
        EXPECT_DOUBLE_EQ(parallel.accuracy_coverage,
                         serial.accuracy_coverage);
        EXPECT_DOUBLE_EQ(parallel.accuracy_wall, serial.accuracy_wall);
        EXPECT_DOUBLE_EQ(parallel.path_precision,
                         serial.path_precision);
        expectDecodeOfRawTraces(parallel);
        EXPECT_EQ(reportOf(parallel), serial_report);
    }
}

}  // namespace
}  // namespace exist
