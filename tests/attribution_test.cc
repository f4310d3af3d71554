/**
 * @file
 * Tests for thread attribution via the five-tuple sidecar and for the
 * behaviour-report synthesis.
 */
#include <gtest/gtest.h>

#include <map>

#include "analysis/attribution.h"
#include "analysis/behavior_report.h"
#include "analysis/testbed.h"
#include "core/exist_backend.h"
#include "decode/flow_reconstructor.h"
#include "os/kernel.h"

namespace exist {
namespace {

SwitchRecord
rec(Cycles ts, CoreId cpu, ThreadId tid, bool in)
{
    return SwitchRecord{ts, cpu, 1, tid, in ? 1u : 0u};
}

TEST(Attributor, BuildsTimelineFromPairs)
{
    std::vector<SwitchRecord> log = {
        rec(100, 0, 7, true),  rec(200, 0, 7, false),
        rec(220, 0, 8, true),  rec(400, 0, 8, false),
        rec(500, 0, 7, true),
    };
    ThreadAttributor at(log);
    EXPECT_EQ(at.threadAt(0, 150), 7);
    EXPECT_EQ(at.threadAt(0, 210), kInvalidId);  // idle gap
    EXPECT_EQ(at.threadAt(0, 300), 8);
    EXPECT_EQ(at.threadAt(0, 999999), 7);  // still on-core (open end)
    EXPECT_EQ(at.threadAt(0, 50), kInvalidId);
    EXPECT_EQ(at.threadAt(3, 150), kInvalidId);  // unknown core
}

TEST(Attributor, HandlesSessionStartMidSlice)
{
    // First record is a sched-out: the thread was on-core when the
    // session (and its log) started.
    std::vector<SwitchRecord> log = {
        rec(300, 1, 9, false),
        rec(350, 1, 4, true),
    };
    ThreadAttributor at(log);
    EXPECT_EQ(at.threadAt(1, 100), 9);
    EXPECT_EQ(at.threadAt(1, 400), 4);
}

TEST(Attributor, AttributesSegmentsByTimestamp)
{
    std::vector<SwitchRecord> log = {
        rec(0, 0, 1, true),    rec(1000, 0, 1, false),
        rec(1000, 0, 2, true), rec(3000, 0, 2, false),
    };
    ThreadAttributor at(log);

    DecodedTrace trace;
    DecodedSegment s1;
    s1.start_time = 100;
    s1.end_time = 900;
    s1.branches = 50;
    DecodedSegment s2;
    s2.start_time = 1200;
    s2.end_time = 2800;
    s2.branches = 200;
    trace.segments = {s1, s2};

    auto per_thread = at.attribute(0, trace);
    ASSERT_EQ(per_thread.count(1), 1u);
    ASSERT_EQ(per_thread.count(2), 1u);
    EXPECT_EQ(per_thread[1].branches, 50u);
    EXPECT_EQ(per_thread[2].branches, 200u);
    EXPECT_EQ(per_thread[1].active_cycles, 800u);
}

TEST(Attributor, MergeAggregatesAcrossCores)
{
    ThreadTrace a{.tid = 5, .segments = 2, .branches = 10,
                  .active_cycles = 100, .longest_gap = 40};
    ThreadTrace b{.tid = 5, .segments = 1, .branches = 5,
                  .active_cycles = 50, .longest_gap = 90};
    auto merged = ThreadAttributor::merge(
        {{{5, a}}, {{5, b}}});
    EXPECT_EQ(merged[5].segments, 3u);
    EXPECT_EQ(merged[5].branches, 15u);
    EXPECT_EQ(merged[5].active_cycles, 150u);
    EXPECT_EQ(merged[5].longest_gap, 90u);
}

/** Branch counts per thread of one process: the attribution
 *  reference, seen from outside the simulated machine. */
class ThreadBranchCounter final : public BranchObserver
{
  public:
    explicit ThreadBranchCounter(ProcessId pid) : pid_(pid) {}

    void onBranch(CoreId, const Thread &t, const BranchRecord &,
                  Cycles) override
    {
        if (t.process().pid() == pid_)
            ++per_thread[t.tid()];
    }

    std::map<ThreadId, std::uint64_t> per_thread;

  private:
    ProcessId pid_;
};

TEST(Attribution, EndToEndMatchesGroundTruthPerThread)
{
    // Two threads of one process timeshare one core; the per-core
    // trace must be attributable back to per-thread branch counts.
    Kernel kernel(NodeConfig{.num_cores = 1, .seed = 9});
    auto bin = Testbed::binaryForApp("om");
    Process *p = kernel.createProcess("om", bin, {0});
    Thread *t1 = kernel.createThread(p, nullptr);
    Thread *t2 = kernel.createThread(p, nullptr);
    kernel.startThread(t1);
    kernel.startThread(t2);
    kernel.runFor(secondsToCycles(0.01));

    ThreadBranchCounter truth(p->pid());
    kernel.setBranchObserver(&truth);
    ExistBackend backend;
    SessionSpec spec;
    spec.target = p;
    spec.period = secondsToCycles(0.1);
    backend.start(kernel, spec);
    kernel.runFor(spec.period);  // HRT stops the session right here
    backend.stop(kernel);
    kernel.setBranchObserver(nullptr);

    FlowReconstructor decoder(bin.get());
    ThreadAttributor attributor(backend.switchLog());
    std::vector<std::map<ThreadId, ThreadTrace>> parts;
    for (const CollectedTrace &ct : backend.collect())
        parts.push_back(
            attributor.attribute(ct.core, decoder.decode(ct.bytes)));
    auto merged = ThreadAttributor::merge(parts);

    const auto &want = truth.per_thread;
    ASSERT_EQ(want.size(), 2u);
    std::uint64_t attributed = 0, unattributed = 0;
    for (const auto &[tid, tt] : merged) {
        if (tid == kInvalidId) {
            unattributed += tt.branches;
            continue;
        }
        attributed += tt.branches;
        ASSERT_EQ(want.count(tid), 1u) << "unknown tid " << tid;
        double expect = static_cast<double>(want.at(tid));
        EXPECT_NEAR(static_cast<double>(tt.branches), expect,
                    expect * 0.05)
            << "tid " << tid;
    }
    // Nearly everything decodes and attributes.
    EXPECT_LT(static_cast<double>(unattributed),
              static_cast<double>(attributed) * 0.02);
}

TEST(BehaviorReportTest, SynthesizesReadableReport)
{
    Kernel kernel(NodeConfig{.num_cores = 2, .seed = 10});
    auto bin = Testbed::binaryForApp("Recommend");
    Process *p = kernel.createProcess("Recommend", bin, {});
    kernel.startThread(kernel.createThread(p, nullptr));
    kernel.startThread(kernel.createThread(p, nullptr));
    kernel.runFor(secondsToCycles(0.01));

    ExistBackend backend;
    SessionSpec spec;
    spec.target = p;
    spec.period = secondsToCycles(0.05);
    backend.start(kernel, spec);
    kernel.runFor(spec.period + secondsToCycles(0.01));
    backend.stop(kernel);

    FlowReconstructor decoder(bin.get());
    std::vector<std::pair<CoreId, DecodedTrace>> cores;
    for (const CollectedTrace &ct : backend.collect())
        cores.emplace_back(ct.core, decoder.decode(ct.bytes));

    std::string report = BehaviorReport::synthesize(
        *bin, cores, backend.switchLog());
    EXPECT_NE(report.find("behaviour report for 'Recommend'"),
              std::string::npos);
    EXPECT_NE(report.find("Hottest functions"), std::string::npos);
    EXPECT_NE(report.find("main_loop"), std::string::npos);
    EXPECT_NE(report.find("Per-thread activity"), std::string::npos);
    EXPECT_NE(report.find("synchronization"), std::string::npos);
}

}  // namespace
}  // namespace exist
