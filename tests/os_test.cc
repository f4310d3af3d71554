/**
 * @file
 * Kernel/scheduler tests: affinity, preemption, blocking syscalls,
 * tracepoint hooks, the five-tuple switch log, periodic interrupt
 * sources, and accounting invariants.
 */
#include <gtest/gtest.h>

#include "analysis/testbed.h"
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

}  // namespace
}  // namespace exist
