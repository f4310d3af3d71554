/**
 * @file
 * Kernel/scheduler tests: affinity, preemption, blocking syscalls,
 * tracepoint hooks, the five-tuple switch log, periodic interrupt
 * sources, accounting invariants, the CPI cost model's inputs, and
 * run-ahead exactness.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "analysis/testbed.h"
#include "os/costs.h"
#include "os/kernel.h"

namespace exist {
namespace {

std::shared_ptr<const ProgramBinary>
binary(const char *app)
{
    return Testbed::binaryForApp(app);
}

TEST(Kernel, AffinityIsRespected)
{
    NodeConfig cfg;
    cfg.num_cores = 4;
    Kernel kernel(cfg);
    Process *p = kernel.createProcess("om", binary("om"), {1, 2});
    for (int i = 0; i < 3; ++i)
        kernel.startThread(kernel.createThread(p, nullptr));
    kernel.runFor(secondsToCycles(0.02));
    EXPECT_EQ(kernel.coreBusyCycles(0), 0u);
    EXPECT_EQ(kernel.coreBusyCycles(3), 0u);
    EXPECT_GT(kernel.coreBusyCycles(1), 0u);
    EXPECT_GT(kernel.coreBusyCycles(2), 0u);
}

TEST(Kernel, QuantumPreemptionSharesACore)
{
    NodeConfig cfg;
    cfg.num_cores = 1;
    Kernel kernel(cfg);
    Process *p = kernel.createProcess("ex", binary("ex"), {0});
    Thread *t1 = kernel.createThread(p, nullptr);
    Thread *t2 = kernel.createThread(p, nullptr);
    kernel.startThread(t1);
    kernel.startThread(t2);
    kernel.runFor(secondsToCycles(0.05));
    // Both threads make progress and switch roughly per quantum.
    EXPECT_GT(t1->counters().insns, 1'000'000u);
    EXPECT_GT(t2->counters().insns, 1'000'000u);
    double ratio = static_cast<double>(t1->counters().insns) /
                   static_cast<double>(t2->counters().insns);
    EXPECT_GT(ratio, 0.7);
    EXPECT_LT(ratio, 1.4);
    EXPECT_GT(kernel.totalContextSwitches(), 40u);
}

TEST(Kernel, FullyProvisionedThreadsDoNotSwitch)
{
    NodeConfig cfg;
    cfg.num_cores = 4;
    Kernel kernel(cfg);
    // Use a profile without syscalls so threads never block.
    AppProfile profile = AppCatalog::find("ex");
    profile.syscalls_per_kinsn = 0.0;
    profile.blocking_fraction = 0.0;  // structural syscalls never block
    auto bin = std::make_shared<const ProgramBinary>(
        ProgramBinary::generate(profile, 1));
    Process *p = kernel.createProcess("ex", bin, {});
    for (int i = 0; i < 4; ++i)
        kernel.startThread(kernel.createThread(p, nullptr));
    kernel.runFor(secondsToCycles(0.05));
    // One switch-in per thread; nothing further.
    EXPECT_LE(kernel.totalContextSwitches(), 4u);
}

TEST(Kernel, BlockingSyscallsParkAndWake)
{
    NodeConfig cfg;
    cfg.num_cores = 1;
    Kernel kernel(cfg);
    AppProfile profile = AppCatalog::find("ex");
    profile.syscalls_per_kinsn = 0.5;
    profile.blocking_fraction = 0.5;
    profile.blocking_io_us_mean = 50.0;
    auto bin = std::make_shared<const ProgramBinary>(
        ProgramBinary::generate(profile, 2));
    Process *p = kernel.createProcess("io", bin, {0});
    Thread *t = kernel.createThread(p, nullptr);
    kernel.startThread(t);
    kernel.runFor(secondsToCycles(0.05));
    EXPECT_GT(t->counters().syscalls, 100u);
    // The thread kept making progress despite repeated blocking.
    EXPECT_GT(t->counters().insns, 100'000u);
    // The core was idle a noticeable fraction of the time.
    EXPECT_LT(kernel.coreBusyCycles(0), secondsToCycles(0.05));
}

TEST(Kernel, SwitchLogRecordsFiveTuples)
{
    NodeConfig cfg;
    cfg.num_cores = 1;
    Kernel kernel(cfg);
    Process *p = kernel.createProcess("om", binary("om"), {0});
    kernel.startThread(kernel.createThread(p, nullptr));
    kernel.startThread(kernel.createThread(p, nullptr));
    kernel.armSwitchLog(p->pid());
    kernel.runFor(secondsToCycles(0.02));
    std::vector<SwitchRecord> log = kernel.takeSwitchLog();
    ASSERT_GT(log.size(), 8u);
    for (std::size_t i = 1; i < log.size(); ++i)
        EXPECT_GE(log[i].timestamp, log[i - 1].timestamp);
    for (const SwitchRecord &r : log) {
        EXPECT_EQ(r.pid, p->pid());
        EXPECT_EQ(r.cpu, 0);
        EXPECT_TRUE(r.op == 0 || r.op == 1);
    }
}

TEST(Kernel, SwitchLogFilterExcludesOthers)
{
    NodeConfig cfg;
    cfg.num_cores = 1;
    Kernel kernel(cfg);
    Process *a = kernel.createProcess("om", binary("om"), {0});
    Process *b = kernel.createProcess("ex", binary("ex"), {0});
    kernel.startThread(kernel.createThread(a, nullptr));
    kernel.startThread(kernel.createThread(b, nullptr));
    kernel.armSwitchLog(a->pid());
    kernel.runFor(secondsToCycles(0.02));
    for (const SwitchRecord &r : kernel.switchLog())
        EXPECT_EQ(r.pid, a->pid());
}

TEST(Kernel, SchedSwitchHooksFireAndCharge)
{
    NodeConfig cfg;
    cfg.num_cores = 1;
    Kernel kernel(cfg);
    Process *p = kernel.createProcess("ex", binary("ex"), {0});
    kernel.startThread(kernel.createThread(p, nullptr));
    kernel.startThread(kernel.createThread(p, nullptr));

    int hook_calls = 0;
    int id = kernel.addSchedSwitchHook(
        [&](Cycles, CoreId, Thread *, Thread *) -> Cycles {
            ++hook_calls;
            return usToCycles(5.0);
        });
    kernel.runFor(secondsToCycles(0.02));
    int calls_while_armed = hook_calls;
    EXPECT_GT(calls_while_armed, 5);
    Cycles kernel_time = kernel.coreKernelCycles(0);
    EXPECT_GE(kernel_time,
              static_cast<Cycles>(calls_while_armed) * usToCycles(5.0));

    kernel.removeSchedSwitchHook(id);
    kernel.runFor(secondsToCycles(0.02));
    EXPECT_EQ(hook_calls, calls_while_armed);
}

TEST(Kernel, SyscallHooksSeeEverySyscall)
{
    NodeConfig cfg;
    cfg.num_cores = 2;
    Kernel kernel(cfg);
    Process *p = kernel.createProcess("mc", binary("mc"), {});
    Thread *t = kernel.createThread(p, nullptr);
    kernel.startThread(t);
    std::uint64_t hook_count = 0;
    kernel.addSyscallHook([&](Cycles, CoreId, Thread &) -> Cycles {
        ++hook_count;
        return 0;
    });
    kernel.runFor(secondsToCycles(0.03));
    EXPECT_EQ(hook_count, t->counters().syscalls);
    EXPECT_GT(hook_count, 50u);
}

TEST(Kernel, InterruptSourceTicksPerCore)
{
    NodeConfig cfg;
    cfg.num_cores = 2;
    Kernel kernel(cfg);
    Process *p = kernel.createProcess("ex", binary("ex"), {0});
    kernel.startThread(kernel.createThread(p, nullptr));

    int busy_hits = 0, idle_hits = 0;
    InterruptSource src;
    src.period = usToCycles(100.0);
    src.cost = usToCycles(2.0);
    src.handler = [&](CoreId, Thread *t) {
        (t != nullptr ? busy_hits : idle_hits) += 1;
    };
    int id = kernel.addInterruptSource(src);
    kernel.runFor(secondsToCycles(0.01));
    // ~100 ticks per core over 10ms at 100us.
    EXPECT_NEAR(busy_hits, 100, 20);   // core 0 busy
    EXPECT_NEAR(idle_hits, 100, 20);   // core 1 idle
    kernel.removeInterruptSource(id);
    int total = busy_hits + idle_hits;
    kernel.runFor(secondsToCycles(0.01));
    EXPECT_EQ(busy_hits + idle_hits, total);
}

TEST(Kernel, TimersFireAtTheRightTime)
{
    NodeConfig cfg;
    Kernel kernel(cfg);
    Cycles fired_at = 0;
    kernel.setTimer(kernel.now() + secondsToCycles(0.01),
                    [&] { fired_at = kernel.now(); });
    kernel.runFor(secondsToCycles(0.02));
    EXPECT_EQ(fired_at, secondsToCycles(0.01));
}

TEST(Kernel, CountersAddUp)
{
    NodeConfig cfg;
    cfg.num_cores = 2;
    Kernel kernel(cfg);
    Process *p = kernel.createProcess("om", binary("om"), {});
    Thread *t = kernel.createThread(p, nullptr);
    kernel.startThread(t);
    kernel.runFor(secondsToCycles(0.05));
    const TaskCounters &c = t->counters();
    EXPECT_GT(c.insns, 0u);
    EXPECT_GT(c.user_cycles, 0u);
    // CPI must be at least the profile's base CPI.
    EXPECT_GE(t->cpi(), AppCatalog::find("om").base_cpi * 0.99);
    // Total busy time across cores at least the thread's cpu time.
    EXPECT_GE(kernel.coreBusyCycles(t->lastCore()), c.user_cycles / 2);
}

TEST(Kernel, MigrationsAreCounted)
{
    NodeConfig cfg;
    cfg.num_cores = 2;
    Kernel kernel(cfg);
    AppProfile profile = AppCatalog::find("mc");
    auto bin = std::make_shared<const ProgramBinary>(
        ProgramBinary::generate(profile, 4));
    Process *p = kernel.createProcess("mc", bin, {});
    // Overcommit with blocking syscalls: wakeups will migrate.
    for (int i = 0; i < 5; ++i)
        kernel.startThread(kernel.createThread(p, nullptr));
    kernel.runFor(secondsToCycles(0.05));
    TaskCounters total = kernel.aggregateCounters();
    EXPECT_GT(total.context_switches, 20u);
}

TEST(Kernel, TimerAndRunSlotAtOneCycleFireInScheduleOrder)
{
    for (bool timer_first : {true, false}) {
        NodeConfig cfg;
        cfg.num_cores = 1;
        Kernel kernel(cfg);
        Process *p = kernel.createProcess("ex", binary("ex"), {0});
        Thread *t = kernel.createThread(p, nullptr);
        kernel.runFor(usToCycles(4.0));
        const Cycles at = kernel.now();
        // The core dispatches its thread when its run slot fires, so
        // the timer sees it running only if the slot fired first.
        bool core_ran = false;
        auto timer = [&] { core_ran = kernel.runningOn(0) != nullptr; };
        if (timer_first) {
            kernel.setTimer(at, timer);
            kernel.startThread(t);  // the run slot, due at `at` too
        } else {
            kernel.startThread(t);
            kernel.setTimer(at, timer);
        }
        kernel.runFor(1);
        EXPECT_EQ(core_ran, !timer_first) << "timer_first=" << timer_first;
        EXPECT_EQ(kernel.runningOn(0), t);
    }
}

TEST(Kernel, RunForLeavesTheClockAtTheRequestedCycle)
{
    NodeConfig cfg;
    cfg.num_cores = 1;
    Kernel kernel(cfg);
    Process *p = kernel.createProcess("om", binary("om"), {0});
    kernel.startThread(kernel.createThread(p, nullptr));
    for (Cycles i = 1; i <= 40; ++i) {
        kernel.runFor(usToCycles(1.0));
        EXPECT_EQ(kernel.now(), i * usToCycles(1.0));
    }
    // Slices outran the clock: the core's next run slot lay beyond
    // every cycle runFor stopped at.
    EXPECT_GT(kernel.coreBusyCycles(0), kernel.now());
}

// --- The CPI model's inputs -----------------------------------------------
//
// Each test watches a thread alone on core 0 that never blocks and so
// never switches: nothing but the input under test can make the kernel
// price its instructions differently.

/** Counts the blocks core 0 retires. */
struct Core0Blocks : BranchObserver {
    std::uint64_t n = 0;
    void
    onBranch(CoreId core, const Thread &, const BranchRecord &,
             Cycles) override
    {
        n += core == 0 ? 1 : 0;
    }
};

/**
 * A profile whose threads never block. Its blocks of ~20k instructions
 * make each slice one block, and the under-one-cycle remainder a slice
 * drops is then ~2e-5 of its cost, far below every factor measured.
 */
std::shared_ptr<const ProgramBinary>
steadyBinary(double llc_sensitivity, double smt_sensitivity)
{
    AppProfile profile = AppCatalog::find("ex");
    profile.syscalls_per_kinsn = 0.0;
    profile.blocking_fraction = 0.0;
    profile.avg_insns_per_block = 20'000.0;
    profile.base_cpi = 1.37;  // fractional, as every CPI it is compared to
    profile.llc_sensitivity = llc_sensitivity;
    profile.smt_sensitivity = smt_sensitivity;
    return std::make_shared<const ProgramBinary>(
        ProgramBinary::generate(profile, 3));
}

/** User cycles per instruction `t` retires over the next 1.5 s, a
 *  window of at least 10k of core 0's blocks. */
double
windowCpi(Kernel &kernel, const Thread &t)
{
    Core0Blocks blocks;
    kernel.setBranchObserver(&blocks);
    const TaskCounters before = t.counters();
    kernel.runFor(secondsToCycles(1.5));
    kernel.setBranchObserver(nullptr);
    EXPECT_GE(blocks.n, 10'000u);
    return static_cast<double>(t.counters().user_cycles -
                               before.user_cycles) /
           static_cast<double>(t.counters().insns - before.insns);
}

/** The CPI moved from `before` to `after` by the cost model's
 *  `factor`, to within 1% of the move. */
void
expectMove(double before, double after, double factor)
{
    EXPECT_NEAR(after / before - 1.0, factor - 1.0,
                0.01 * std::abs(factor - 1.0));
}

/** Trace `t`'s process on core c (CR3-filtered) into `topa`. */
void
traceOn(Kernel &kernel, CoreId c, const Thread &t, bool cache_bypass,
        std::vector<TopaEntry> topa = {TopaEntry{1 << 20, false, false}},
        bool ring = true)
{
    TracerConfig cfg;
    cfg.cr3_filter = true;
    cfg.cr3_match = t.process().cr3();
    cfg.topa = std::move(topa);
    cfg.topa_ring = ring;
    cfg.cache_bypass = cache_bypass;
    CoreTracer &tracer = kernel.tracer(c);
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(
        tracer.enable(kernel.now(), t.process().cr3(), t.currentAddress())
            .ok);
    ASSERT_TRUE(tracer.packetEn());
}

TEST(KernelCpi, LocalTracerTaxesItsOutputMode)
{
    for (bool bypass : {true, false}) {
        SCOPED_TRACE(bypass ? "cache bypass" : "write-back");
        Kernel kernel(NodeConfig{.num_cores = 2});
        Process *p =
            kernel.createProcess("steady", steadyBinary(0.03, 0.1), {0});
        Thread *t = kernel.createThread(p, nullptr);
        kernel.startThread(t);
        kernel.runFor(secondsToCycles(0.01));
        const double untraced = windowCpi(kernel, *t);
        traceOn(kernel, 0, *t, bypass);
        const double traced = windowCpi(kernel, *t);
        expectMove(untraced, traced,
                   1.0 + (bypass ? costs::kTraceTaxBypass
                                 : costs::kTraceTaxWriteBack));
        EXPECT_EQ(kernel.totalContextSwitches(), 1u);
    }
}

TEST(KernelCpi, FilledStopRegionLiftsTheTax)
{
    Kernel kernel(NodeConfig{.num_cores = 2});
    Process *p = kernel.createProcess("steady", steadyBinary(0.03, 0.1), {0});
    Thread *t = kernel.createThread(p, nullptr);
    kernel.startThread(t);
    kernel.runFor(secondsToCycles(0.01));
    const double untraced = windowCpi(kernel, *t);
    // A window writes about 42 KB: this fills after one and a half.
    traceOn(kernel, 0, *t, false, {TopaEntry{64 << 10, true, false}},
            false);
    const double taxed = windowCpi(kernel, *t);
    ASSERT_FALSE(kernel.tracer(0).stopped());
    while (!kernel.tracer(0).stopped())
        kernel.runFor(secondsToCycles(0.001));
    EXPECT_FALSE(kernel.tracer(0).packetEn());
    const double stopped = windowCpi(kernel, *t);
    expectMove(untraced, taxed, 1.0 + costs::kTraceTaxWriteBack);
    expectMove(taxed, stopped, 1.0 / (1.0 + costs::kTraceTaxWriteBack));
    EXPECT_EQ(kernel.totalContextSwitches(), 1u);
}

TEST(KernelCpi, WriteBackTracerElsewherePollutesTheSharedCache)
{
    const double llc = 0.2;
    Kernel kernel(NodeConfig{.num_cores = 2});
    auto bin = steadyBinary(llc, 0.1);
    Process *p = kernel.createProcess("steady", bin, {0});
    Process *other = kernel.createProcess("other", bin, {1});
    Thread *t = kernel.createThread(p, nullptr);
    Thread *u = kernel.createThread(other, nullptr);
    kernel.startThread(t);
    kernel.startThread(u);
    kernel.runFor(secondsToCycles(0.01));
    const double quiet = windowCpi(kernel, *t);
    traceOn(kernel, 1, *u, false);
    const double polluted = windowCpi(kernel, *t);
    // One other busy core; one write-back tracer on another core.
    expectMove(quiet, polluted,
               (1.0 + llc + costs::kTracePollutionWeight * llc) /
                   (1.0 + llc));
    EXPECT_EQ(kernel.totalContextSwitches(), 2u);
}

TEST(KernelCpi, BusySmtSiblingContends)
{
    const double llc = 0.03, smt = 0.25;
    Kernel kernel(NodeConfig{.num_cores = 2, .smt = true});
    auto bin = steadyBinary(llc, smt);
    Process *p = kernel.createProcess("steady", bin, {0});
    Process *sibling = kernel.createProcess("sibling", bin, {1});
    Thread *t = kernel.createThread(p, nullptr);
    kernel.startThread(t);
    kernel.runFor(secondsToCycles(0.01));
    const double alone = windowCpi(kernel, *t);
    kernel.startThread(kernel.createThread(sibling, nullptr));
    const double shared = windowCpi(kernel, *t);
    expectMove(alone, shared, 1.0 + llc + smt);
    EXPECT_EQ(t->counters().context_switches, 1u);
}

// --- Run-ahead exactness ------------------------------------------------
//
// runCore fires a core's next slice itself while runUntil would fire
// it next. Stepping a node 1 µs at a time bounds every such run by the
// step, so a node stepped that way must end where one long runFor ends.

enum class RunAheadCase { kLoneCompute, kOvercommittedMc, kTimerFromHook };

/** What a run leaves behind that a moved slice boundary would change. */
struct NodeState {
    std::vector<TaskCounters> counters;  ///< per thread
    std::vector<SwitchRecord> switches;
    std::vector<Cycles> busy, kernel_cycles;  ///< per core
    std::vector<std::vector<std::uint8_t>> topa;  ///< per core
    std::vector<Cycles> timers_fired;
    Cycles now = 0;
};

NodeState
runNode(RunAheadCase c, bool stepped)
{
    Kernel kernel(NodeConfig{.num_cores = 2, .seed = 7});
    std::vector<Thread *> threads;
    NodeState st;
    switch (c) {
      case RunAheadCase::kLoneCompute: {
        Process *p = kernel.createProcess("lbm", binary("lbm"), {0});
        threads.push_back(kernel.createThread(p, nullptr));
        break;
      }
      case RunAheadCase::kOvercommittedMc: {
        Process *p = kernel.createProcess("mc", binary("mc"), {});
        for (int i = 0; i < 5; ++i)
            threads.push_back(kernel.createThread(p, nullptr));
        break;
      }
      case RunAheadCase::kTimerFromHook: {
        AppProfile profile = AppCatalog::find("ex");
        profile.syscalls_per_kinsn = 0.05;
        profile.blocking_fraction = 0.0;
        auto bin = std::make_shared<const ProgramBinary>(
            ProgramBinary::generate(profile, 5));
        Process *p = kernel.createProcess("hooked", bin, {0});
        threads.push_back(kernel.createThread(p, nullptr));
        kernel.addSyscallHook([&](Cycles now, CoreId, Thread &) -> Cycles {
            kernel.setTimer(now + usToCycles(3.0), [&] {
                st.timers_fired.push_back(kernel.now());
            });
            return 0;
        });
        break;
      }
    }
    for (Thread *t : threads)
        kernel.startThread(t);
    for (CoreId core = 0; core < kernel.numCores(); ++core) {
        TracerConfig cfg;
        cfg.topa = {TopaEntry{1 << 22, true, false}};
        EXPECT_TRUE(kernel.tracer(core).configure(cfg).ok);
        EXPECT_TRUE(kernel.tracer(core).enable(0, 0, 0).ok);
    }
    kernel.armSwitchLog(kInvalidId);

    const Cycles span = usToCycles(3000.0);
    if (stepped) {
        for (Cycles done = 0; done < span; done += usToCycles(1.0))
            kernel.runFor(usToCycles(1.0));
    } else {
        kernel.runFor(span);
    }

    for (Thread *t : threads)
        st.counters.push_back(t->counters());
    st.switches = kernel.takeSwitchLog();
    for (CoreId core = 0; core < kernel.numCores(); ++core) {
        st.busy.push_back(kernel.coreBusyCycles(core));
        st.kernel_cycles.push_back(kernel.coreKernelCycles(core));
        EXPECT_FALSE(kernel.tracer(core).output().stopped());
        kernel.tracer(core).output().copyTo(st.topa.emplace_back());
    }
    st.now = kernel.now();
    if (c == RunAheadCase::kTimerFromHook) {
        EXPECT_GT(st.timers_fired.size(), 10u);
    }
    return st;
}

auto
fields(const TaskCounters &c)
{
    return std::tie(c.insns, c.user_cycles, c.kernel_cycles,
                    c.context_switches, c.migrations, c.syscalls,
                    c.branch_misses, c.l1_misses, c.llc_misses);
}

auto
fields(const SwitchRecord &r)
{
    return std::tie(r.timestamp, r.cpu, r.pid, r.tid, r.op);
}

void
expectRunAheadExact(RunAheadCase c)
{
    const NodeState whole = runNode(c, false);
    const NodeState stepped = runNode(c, true);
    ASSERT_EQ(whole.counters.size(), stepped.counters.size());
    for (std::size_t i = 0; i < whole.counters.size(); ++i) {
        EXPECT_GT(whole.counters[i].insns, 0u) << "thread " << i;
        EXPECT_TRUE(fields(whole.counters[i]) ==
                    fields(stepped.counters[i]))
            << "thread " << i;
    }
    ASSERT_EQ(whole.switches.size(), stepped.switches.size());
    for (std::size_t i = 0; i < whole.switches.size(); ++i)
        EXPECT_TRUE(fields(whole.switches[i]) ==
                    fields(stepped.switches[i]))
            << "switch record " << i;
    EXPECT_EQ(whole.busy, stepped.busy);
    EXPECT_EQ(whole.kernel_cycles, stepped.kernel_cycles);
    EXPECT_GT(whole.topa[0].size(), 0u);
    EXPECT_EQ(whole.topa, stepped.topa);
    EXPECT_EQ(whole.timers_fired, stepped.timers_fired);
    EXPECT_EQ(whole.now, stepped.now);
}

TEST(KernelRunAhead, LoneComputeThreadStepsExactly)
{
    expectRunAheadExact(RunAheadCase::kLoneCompute);
}

TEST(KernelRunAhead, OvercommittedBlockingNodeStepsExactly)
{
    expectRunAheadExact(RunAheadCase::kOvercommittedMc);
}

TEST(KernelRunAhead, TimerSetInsideASliceStepsExactly)
{
    expectRunAheadExact(RunAheadCase::kTimerFromHook);
}

}  // namespace
}  // namespace exist
