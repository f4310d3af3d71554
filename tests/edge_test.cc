/**
 * @file
 * Edge-case coverage: configurations and paths the main suites don't
 * reach — CYC/TSC-disabled tracing, SMT topology contention,
 * empty-input report synthesis, UMA corner cases, and tracer misuse.
 */
#include <gtest/gtest.h>

#include "analysis/behavior_report.h"
#include "analysis/testbed.h"
#include "core/uma.h"
#include "decode/flow_reconstructor.h"
#include "hwtrace/tracer.h"
#include "os/service.h"
#include "workload/execution.h"

namespace exist {
namespace {

TEST(EdgeTracer, DecodesWithoutCycAndTsc)
{
    // Timing packets off: control flow must still reconstruct exactly;
    // only segment timestamps degenerate.
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("de"), 31);
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.cyc_en = false;
    cfg.tsc_en = false;
    cfg.topa = {TopaEntry{8 << 20, true, false}};
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ExecutionContext exec(&prog, 32);
    ASSERT_TRUE(
        tracer.enable(0, 0, prog.block(exec.currentBlock()).address)
            .ok);
    std::vector<std::uint32_t> truth;
    Cycles now = 0;
    for (int i = 0; i < 20000; ++i) {
        truth.push_back(exec.currentBlock());
        StepResult s = exec.step();
        now += s.insns;
        tracer.onBranch(s.branch, prog, now, 0, true);
    }
    tracer.disable(now);
    EXPECT_EQ(tracer.packetStats().cyc_packets, 0u);

    DecodeOptions opts;
    opts.record_path = true;
    FlowReconstructor rec(&prog, opts);
    DecodedTrace dt = rec.decode(tracer.output().data().data(),
                                 tracer.output().bytesAccepted());
    EXPECT_EQ(dt.decode_errors, 0u);
    std::size_t n = std::min(dt.block_path.size(), truth.size());
    ASSERT_GT(n, 19000u);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(dt.block_path[i], truth[i]);
    // Dropping CYC shrinks the stream substantially.
    TracerConfig with_cyc = cfg;
    with_cyc.cyc_en = true;
    CoreTracer tracer2(1);
    ASSERT_TRUE(tracer2.configure(with_cyc).ok);
    ExecutionContext exec2(&prog, 32);
    ASSERT_TRUE(tracer2
                    .enable(0, 0,
                            prog.block(exec2.currentBlock()).address)
                    .ok);
    now = 0;
    for (int i = 0; i < 20000; ++i) {
        StepResult s = exec2.step();
        now += s.insns;
        tracer2.onBranch(s.branch, prog, now, 0, true);
    }
    tracer2.disable(now);
    EXPECT_LT(tracer.output().bytesAccepted(),
              tracer2.output().bytesAccepted());
}

TEST(EdgeKernel, SmtSiblingsContend)
{
    // With SMT topology, running on a sibling-busy physical core costs
    // CPI (the Fig. 5 "Share HT" path).
    auto cpi_with = [](bool sibling_busy) {
        NodeConfig cfg;
        cfg.num_cores = 2;
        cfg.smt = true;  // cores 0,1 are one physical core
        Kernel kernel(cfg);
        auto bin = Testbed::binaryForApp("om");
        Process *a = kernel.createProcess("om", bin, {0});
        Thread *t = kernel.createThread(a, nullptr);
        kernel.startThread(t);
        if (sibling_busy) {
            Process *b =
                kernel.createProcess("ex", Testbed::binaryForApp("ex"),
                                     {1});
            kernel.startThread(kernel.createThread(b, nullptr));
        }
        kernel.runFor(secondsToCycles(0.03));
        return t->cpi();
    };
    double alone = cpi_with(false);
    double contended = cpi_with(true);
    EXPECT_GT(contended, alone * 1.05);
}

TEST(EdgeReport, EmptyInputsAreSafe)
{
    auto bin = Testbed::binaryForApp("mc");
    std::string report =
        BehaviorReport::synthesize(*bin, {}, {});
    EXPECT_NE(report.find("0 branches"), std::string::npos);
    // No sidecar: the per-thread section is simply absent.
    EXPECT_EQ(report.find("Per-thread activity"), std::string::npos);
}

TEST(EdgeUma, SingleCoreNodePlans)
{
    Kernel kernel(NodeConfig{.num_cores = 1, .seed = 35});
    auto bin = Testbed::binaryForApp("Search2");  // CPU-share
    Process *p = kernel.createProcess("Search2", bin, {});
    UmaConfig cfg;
    cfg.sample_ratio = 0.3;
    UmaPlan plan = UsageAwareMemoryAllocator::plan(kernel, *p, cfg);
    ASSERT_EQ(plan.allocations.size(), 1u);
    EXPECT_EQ(plan.allocations[0].core, 0);
}

TEST(EdgeUma, FreshNodeHasNoUtilizationHistory)
{
    // Planning at t=0 (no busy history) must not divide by zero or
    // produce degenerate buffers.
    Kernel kernel(NodeConfig{.num_cores = 8, .seed = 36});
    auto bin = Testbed::binaryForApp("Search2");
    Process *p = kernel.createProcess("Search2", bin, {});
    UmaPlan plan =
        UsageAwareMemoryAllocator::plan(kernel, *p, UmaConfig{});
    EXPECT_GE(plan.allocations.size(), 1u);
    for (const CoreAllocation &a : plan.allocations)
        EXPECT_GE(a.real_bytes, 4ull << 20);
}

TEST(EdgeTracer, DisableWithoutEnableIsSafe)
{
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.topa = {TopaEntry{4096, true, false}};
    ASSERT_TRUE(tracer.configure(cfg).ok);
    auto res = tracer.disable(10);  // never enabled
    EXPECT_TRUE(res.ok);
    EXPECT_FALSE(tracer.enabled());
}

TEST(EdgeTracer, ReconfigureBetweenSessions)
{
    // A tracer is reused across sessions with different targets; the
    // second session must not see the first's data.
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("ex"), 37);
    CoreTracer tracer(0);
    for (std::uint64_t cr3 : {0x111ull, 0x222ull}) {
        TracerConfig cfg;
        cfg.cr3_filter = true;
        cfg.cr3_match = cr3;
        cfg.topa = {TopaEntry{1 << 18, true, false}};
        ASSERT_TRUE(tracer.configure(cfg).ok);
        ExecutionContext exec(&prog, cr3);
        ASSERT_TRUE(tracer
                        .enable(0, cr3,
                                prog.block(exec.currentBlock())
                                    .address)
                        .ok);
        Cycles now = 0;
        for (int i = 0; i < 500; ++i) {
            StepResult s = exec.step();
            now += s.insns;
            tracer.onBranch(s.branch, prog, now, cr3, true);
        }
        ASSERT_TRUE(tracer.disable(now).ok);
        EXPECT_GT(tracer.output().bytesAccepted(), 0u);
    }
}

TEST(EdgeWorkload, TinyProfileStillGenerates)
{
    AppProfile p = AppCatalog::find("ex");
    p.num_functions = 2;
    p.min_blocks_per_fn = 2;
    p.max_blocks_per_fn = 2;
    ProgramBinary prog = ProgramBinary::generate(p, 38);
    EXPECT_GE(prog.numFunctions(), 2u);
    ExecutionContext exec(&prog, 39);
    for (int i = 0; i < 10000; ++i)
        exec.step();  // must not trap or crash
}

TEST(EdgeService, SubmitWithNullCallback)
{
    Kernel kernel(NodeConfig{.num_cores = 1, .seed = 40});
    auto bin = Testbed::binaryForApp("mc");
    Process *p = kernel.createProcess("mc", bin, {});
    Service svc(&kernel, p, 41);
    svc.spawnWorkers(1);
    svc.submit(kernel.now(), nullptr);  // fire-and-forget request
    kernel.runFor(secondsToCycles(0.01));
    EXPECT_EQ(svc.completedCount(), 1u);
}

}  // namespace
}  // namespace exist
