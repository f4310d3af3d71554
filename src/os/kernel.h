/**
 * @file
 * The node OS model: cores with per-core hardware tracers, a preemptive
 * affinity-aware scheduler, syscalls, tracepoints with injectable hooks
 * (the mechanism EXIST's kernel hooker uses), high-resolution timers,
 * and the per-task accounting the evaluation reads out.
 *
 * Execution is block-granular: a core runs its current thread's
 * ExecutionContext in bounded slices between event-queue visits, so
 * virtual time on every core stays within costs::kMaxSlice of the
 * global clock while block events (and thus trace packets) retain exact
 * per-branch fidelity. A core's next slice is its run slot, a (time, id)
 * key whose id comes from the event queue's counter; runUntil fires
 * slots and queued events in one (time, id) order, so a slice costs no
 * queue round trip and fires exactly where a queued event would.
 */
#ifndef EXIST_OS_KERNEL_H
#define EXIST_OS_KERNEL_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hwtrace/tracer.h"
#include "os/costs.h"
#include "os/task.h"
#include "sim/event_queue.h"
#include "util/rng.h"
#include "util/types.h"

namespace exist {

/** Static description of a node's hardware. */
struct NodeConfig {
    int num_cores = 8;
    /** When true, cores (2i, 2i+1) are SMT siblings on one physical
     *  core and pay smt_sensitivity when both are busy. */
    bool smt = false;
    /** Host memory capacity (for allocation accounting, Fig. 11). */
    std::uint64_t memory_mb = 384ull * 1024;
    std::uint64_t seed = 1;
};

/**
 * One record of the sched_switch side-channel log EXIST keeps to
 * re-associate per-core traces with threads (paper §3.3): the 24-byte
 * five-tuple [Timestamp, CPUID, ProcessID, ThreadID, Operation].
 */
struct SwitchRecord {
    std::uint64_t timestamp;
    std::int32_t cpu;
    std::int32_t pid;
    std::int32_t tid;
    std::uint32_t op;  ///< 1 = scheduled in, 0 = scheduled out
};
static_assert(sizeof(SwitchRecord) == 24, "five-tuple must be 24 bytes");

/** Observer of every retired user-level branch (ground-truth capture). */
class BranchObserver
{
  public:
    virtual ~BranchObserver() = default;
    virtual void onBranch(CoreId core, const Thread &t,
                          const BranchRecord &rec, Cycles now) = 0;
};

/** Hook injected at the sched_switch tracepoint. Returns its cost. */
using SchedSwitchHook =
    std::function<Cycles(Cycles now, CoreId core, Thread *prev,
                         Thread *next)>;

/** Hook invoked at syscall entry (eBPF sys_enter). Returns its cost. */
using SyscallHook = std::function<Cycles(Cycles now, CoreId core,
                                         Thread &t)>;

/** Handler for tracer aux-buffer PMIs. Returns the handling cost. */
using PmiHandler = std::function<Cycles(CoreId core, Cycles now)>;

/** Periodic per-core interrupt source (statistical samplers). */
struct InterruptSource {
    Cycles period;
    Cycles cost;
    std::function<void(CoreId, Thread *)> handler;
};

class Kernel
{
  public:
    explicit Kernel(const NodeConfig &cfg);
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    // --- Time & simulation control --------------------------------------
    /** Schedule against it; move time only through runFor/runUntil,
     *  which also fire the cores' run slots. */
    EventQueue &queue() { return queue_; }
    Cycles now() const { return queue_.now(); }
    /** Advance the simulation by `duration`. */
    void runFor(Cycles duration);
    /** Advance the simulation to absolute time `when`. */
    void runUntil(Cycles when);

    // --- Topology --------------------------------------------------------
    int numCores() const { return static_cast<int>(cores_.size()); }
    CoreTracer &tracer(CoreId c) { return *cores_[c].tracer; }
    const NodeConfig &config() const { return cfg_; }

    // --- Task management -------------------------------------------------
    Process *createProcess(const std::string &name,
                           std::shared_ptr<const ProgramBinary> binary,
                           std::vector<CoreId> allowed_cores);
    /** Create a thread; it starts blocked until startThread(). */
    Thread *createThread(Process *proc, ThreadDriver *driver);
    /** Make a thread runnable now. */
    void startThread(Thread *t);
    /** Wake a blocked thread (service request arrival, I/O done). */
    void wakeThread(Thread *t);

    const std::vector<std::unique_ptr<Process>> &processes() const
    {
        return processes_;
    }
    Process *findProcess(const std::string &name) const;

    // --- Tracepoints & instrumentation ------------------------------------
    int addSchedSwitchHook(SchedSwitchHook hook);
    void removeSchedSwitchHook(int id);
    int addSyscallHook(SyscallHook hook);
    void removeSyscallHook(int id);
    void setPmiHandler(PmiHandler h) { pmi_handler_ = std::move(h); }
    void setBranchObserver(BranchObserver *o) { branch_observer_ = o; }

    int addInterruptSource(const InterruptSource &src);
    void removeInterruptSource(int id);

    /** Record the five-tuple switch log (pid filter; -1 = all). */
    void armSwitchLog(ProcessId pid_filter);
    void disarmSwitchLog();
    const std::vector<SwitchRecord> &switchLog() const
    {
        return switch_log_;
    }
    std::vector<SwitchRecord> takeSwitchLog();

    /** One-shot timer (EXIST's HRT bounding the tracing period). */
    void setTimer(Cycles when, std::function<void()> fn);

    // --- Accounting --------------------------------------------------------
    /** Busy cycles accumulated by a core since construction. */
    Cycles coreBusyCycles(CoreId c) const { return cores_[c].busy; }
    /** Kernel cycles (switch/syscall/interrupt overhead) per core. */
    Cycles coreKernelCycles(CoreId c) const
    {
        return cores_[c].kernel_cycles;
    }
    /** Whether a thread of `pid` is currently running on core c. */
    Thread *runningOn(CoreId c) const { return cores_[c].current; }

    /** Node-wide counters aggregated over live threads. */
    TaskCounters aggregateCounters() const;

    std::uint64_t totalContextSwitches() const { return total_switches_; }

  private:
    static constexpr EventKey kNoRunSlot{EventQueue::kMaxTime,
                                         kInvalidEvent};

    struct Core {
        CoreId id = 0;
        Thread *current = nullptr;
        std::unique_ptr<CoreTracer> tracer;
        std::deque<Thread *> runq;
        Cycles quantum_end = 0;
        Cycles busy = 0;
        Cycles kernel_cycles = 0;
        Cycles pending_interrupt = 0;
        /** Next slice, fired by runUntil; kNoRunSlot while none is due. */
        EventKey run_slot = kNoRunSlot;
        /** Local time cursor (>= queue time while a slice runs). */
        Cycles cursor = 0;
        Cycles last_switch_in = 0;
    };

    void scheduleRun(CoreId c, Cycles when);
    /** The core whose run slot fires first (any core when none is due). */
    Core &firstRunSlot();
    void runCore(CoreId c);
    void dispatch(Core &core, Cycles now);
    void contextSwitch(Core &core, Thread *next, Cycles now);
    void enqueue(Thread *t);
    CoreId pickCoreFor(Thread *t) const;
    double effectiveCpi(const Core &core, const Thread &t) const;
    /** Returns true when the syscall blocked the thread. */
    bool handleSyscallInternal(Core &core, Thread &t, Cycles &cursor);
    void recordSwitch(Cycles now, CoreId cpu, Thread *t, bool in);
    void armInterruptTick(int id, CoreId core);
    int writeBackTracersActive() const;

    NodeConfig cfg_;
    EventQueue queue_;
    Rng rng_;
    std::vector<Core> cores_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::vector<std::unique_ptr<Thread>> threads_;
    ComputeDriver compute_driver_;

    std::map<int, SchedSwitchHook> switch_hooks_;
    std::map<int, SyscallHook> syscall_hooks_;
    std::map<int, InterruptSource> interrupt_sources_;
    int next_hook_id_ = 1;
    PmiHandler pmi_handler_;
    BranchObserver *branch_observer_ = nullptr;

    bool switch_log_armed_ = false;
    ProcessId switch_log_filter_ = kInvalidId;
    std::vector<SwitchRecord> switch_log_;

    int busy_cores_ = 0;
    std::uint64_t total_switches_ = 0;
    int next_pid_ = 1;
    int next_tid_ = 100;

    friend class KernelTestPeer;
};

}  // namespace exist

#endif  // EXIST_OS_KERNEL_H
