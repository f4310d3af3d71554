/**
 * @file
 * Decoder tests: the central property is exact reconstruction — encode
 * an execution through the tracer, decode the bytes, and get the same
 * block path back. Parameterized across applications and seeds, plus
 * robustness cases (truncation, ring wraps, filter churn).
 */
#include <gtest/gtest.h>

#include <tuple>

#include "decode/flow_reconstructor.h"
#include "decode/packet_parser.h"
#include "hwtrace/tracer.h"
#include "workload/execution.h"

namespace exist {
namespace {

struct Encoded {
    ProgramBinary prog;
    std::vector<std::uint32_t> truth;
    CoreTracer tracer{0};

    explicit Encoded(ProgramBinary p) : prog(std::move(p)) {}
};

/** Drive `steps` blocks through a tracer, recording the ground truth.
 *  Syscalls exercise the PGD/PGE pause-resume path. */
std::unique_ptr<Encoded>
encode(const std::string &app, std::uint64_t seed, int steps,
       std::uint64_t topa_bytes = 32 << 20, bool ring = false)
{
    auto enc = std::make_unique<Encoded>(
        ProgramBinary::generate(AppCatalog::find(app), seed));
    TracerConfig cfg;
    cfg.cr3_filter = true;
    cfg.cr3_match = 0x77;
    cfg.topa = {TopaEntry{topa_bytes, !ring, false}};
    cfg.topa_ring = ring;
    EXPECT_TRUE(enc->tracer.configure(cfg).ok);

    ExecutionContext exec(&enc->prog, seed ^ 0x1111);
    EXPECT_TRUE(enc->tracer
                    .enable(0, 0x77,
                            enc->prog.block(exec.currentBlock())
                                .address)
                    .ok);
    Cycles now = 0;
    for (int i = 0; i < steps; ++i) {
        enc->truth.push_back(exec.currentBlock());
        StepResult s = exec.step();
        now += s.insns;
        enc->tracer.onBranch(s.branch, enc->prog, now, 0x77, true);
        if (s.syscall) {
            if (s.branch.kind != BranchKind::kSyscall)
                enc->tracer.onSyscallEntry(now);
            now += 150;
            enc->tracer.onUserResume(
                0x77, enc->prog.block(exec.currentBlock()).address,
                now);
        }
    }
    enc->tracer.disable(now);
    return enc;
}

class RoundTrip : public ::testing::TestWithParam<
                      std::tuple<std::string, std::uint64_t>>
{
};

TEST_P(RoundTrip, DecodeReproducesExecution)
{
    auto [app, seed] = GetParam();
    auto enc = encode(app, seed, 30000);
    DecodeOptions opts;
    opts.record_path = true;
    FlowReconstructor rec(&enc->prog, opts);
    DecodedTrace dt = rec.decode(enc->tracer.output().data().data(),
                                 enc->tracer.output().bytesAccepted());

    EXPECT_EQ(dt.decode_errors, 0u);
    // The decoded path must be a prefix-exact match of the truth
    // (the tail may be missing: up to one static-walk overshoot or
    // in-flight TNT group at disable).
    ASSERT_GE(dt.block_path.size(), enc->truth.size() * 98 / 100);
    std::size_t n =
        std::min(dt.block_path.size(), enc->truth.size());
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(dt.block_path[i], enc->truth[i]) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndSeeds, RoundTrip,
    ::testing::Combine(::testing::Values("pb", "mcf", "om", "x264",
                                         "de", "ex", "mc", "Search1",
                                         "Recommend"),
                       ::testing::Values(1u, 99u)));

TEST(Decode, FunctionHistogramMatchesTruth)
{
    auto enc = encode("om", 5, 40000);
    FlowReconstructor rec(&enc->prog);
    DecodedTrace dt = rec.decode(enc->tracer.output().data().data(),
                                 enc->tracer.output().bytesAccepted());
    std::vector<std::uint64_t> truth_insns(enc->prog.numFunctions(), 0);
    for (std::uint32_t b : enc->truth)
        truth_insns[enc->prog.block(b).function_id] +=
            enc->prog.block(b).insns;
    // Every function with significant truth mass appears in the decode.
    for (std::uint32_t f = 0; f < enc->prog.numFunctions(); ++f) {
        if (truth_insns[f] > 1000) {
            EXPECT_GT(dt.function_insns[f], 0u) << "function " << f;
        }
    }
}

TEST(Decode, StopBufferYieldsExactPrefix)
{
    // A small STOP buffer: the decode must be a correct prefix.
    auto enc = encode("ex", 7, 50000, /*topa=*/20000);
    EXPECT_TRUE(enc->tracer.stopped());
    DecodeOptions opts;
    opts.record_path = true;
    FlowReconstructor rec(&enc->prog, opts);
    DecodedTrace dt = rec.decode(enc->tracer.output().data().data(),
                                 enc->tracer.output().bytesAccepted());
    ASSERT_GT(dt.block_path.size(), 100u);
    ASSERT_LT(dt.block_path.size(), enc->truth.size());
    for (std::size_t i = 0; i + 8 < dt.block_path.size(); ++i)
        ASSERT_EQ(dt.block_path[i], enc->truth[i]) << "at " << i;
}

TEST(Decode, RingWrapResyncsAtPsb)
{
    // A ring that wrapped: decode resyncs at a PSB and recovers the
    // recent suffix of the execution.
    auto enc = encode("ex", 9, 60000, /*topa=*/30000, /*ring=*/true);
    EXPECT_GT(enc->tracer.output().wraps(), 0u);
    std::vector<std::uint8_t> bytes;
    enc->tracer.output().drainTo(bytes);

    DecodeOptions opts;
    opts.record_path = true;
    FlowReconstructor rec(&enc->prog, opts);
    DecodedTrace dt = rec.decode(bytes);
    EXPECT_GT(dt.resyncs, 0u);
    ASSERT_GT(dt.block_path.size(), 100u);
    // The decoded path must be one contiguous run inside the truth,
    // located near its end (it is the most recent execution suffix).
    // The final block may be a static-walk overshoot past the last
    // encoded branch, so it is excluded from the match.
    const auto &path = dt.block_path;
    const auto &truth = enc->truth;
    std::size_t head = 32;
    std::size_t where = truth.size();
    for (std::size_t start = 0;
         start + head <= truth.size() && where == truth.size();
         ++start) {
        std::size_t k = 0;
        while (k < head && truth[start + k] == path[k])
            ++k;
        if (k == head)
            where = start;
    }
    ASSERT_LT(where, truth.size()) << "decoded head not in truth";
    EXPECT_GT(where, truth.size() / 4) << "should be a recent suffix";
    std::size_t match = 0;
    while (where + match < truth.size() && match < path.size() &&
           truth[where + match] == path[match])
        ++match;
    EXPECT_GE(match + 8, path.size())
        << "decoded run must match truth contiguously";
}

TEST(Decode, GarbageInputIsSafe)
{
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("ex"), 1);
    std::vector<std::uint8_t> junk(5000);
    for (std::size_t i = 0; i < junk.size(); ++i)
        junk[i] = static_cast<std::uint8_t>(i * 37 + 11);
    FlowReconstructor rec(&prog);
    DecodedTrace dt = rec.decode(junk);
    // Must terminate without crashing; nothing meaningful decoded.
    EXPECT_EQ(dt.branches_decoded + dt.decode_errors + dt.resyncs,
              dt.branches_decoded + dt.decode_errors + dt.resyncs);
}

TEST(Decode, TruncatedStreamIsSafe)
{
    auto enc = encode("om", 11, 5000);
    const auto &store = enc->tracer.output().data();
    std::uint64_t n = enc->tracer.output().bytesAccepted();
    FlowReconstructor rec(&enc->prog);
    // Every truncation point must parse without crashing.
    for (std::uint64_t cut = 0; cut < n; cut += 997) {
        DecodedTrace dt = rec.decode(store.data(), cut);
        EXPECT_LE(dt.branches_decoded, enc->truth.size());
    }
}

TEST(PacketParserTest, EmptyAndPadding)
{
    std::uint8_t pad[16] = {0};
    PacketParser parser(pad, sizeof(pad));
    Packet pkt;
    EXPECT_FALSE(parser.next(pkt));

    PacketParser empty(nullptr, 0);
    EXPECT_FALSE(empty.next(pkt));
}

}  // namespace
}  // namespace exist
