/**
 * @file
 * Processes and threads of the node OS model.
 *
 * A Process owns a generated binary, a CR3 value (what the hardware
 * CR3 filter matches on) and a core-affinity that encodes its pod's
 * provisioning mode. A Thread walks the binary through an
 * ExecutionContext and carries all per-task accounting the evaluation
 * reads out (cycles, instructions, switches, hardware events).
 */
#ifndef EXIST_OS_TASK_H
#define EXIST_OS_TASK_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/types.h"
#include "workload/app_profile.h"
#include "workload/execution.h"
#include "workload/program.h"

namespace exist {

class Thread;

/** Per-thread hardware/software event accounting (paper Fig. 4). */
struct TaskCounters {
    std::uint64_t insns = 0;
    std::uint64_t user_cycles = 0;
    std::uint64_t kernel_cycles = 0;
    std::uint64_t context_switches = 0;
    std::uint64_t migrations = 0;
    std::uint64_t syscalls = 0;
    double branch_misses = 0;
    double l1_misses = 0;
    double llc_misses = 0;

    void
    accumulate(const TaskCounters &o)
    {
        insns += o.insns;
        user_cycles += o.user_cycles;
        kernel_cycles += o.kernel_cycles;
        context_switches += o.context_switches;
        migrations += o.migrations;
        syscalls += o.syscalls;
        branch_misses += o.branch_misses;
        l1_misses += o.l1_misses;
        llc_misses += o.llc_misses;
    }
};

/** A process: binary + address space identity + affinity. */
class Process
{
  public:
    Process(ProcessId pid, std::string name,
            std::shared_ptr<const ProgramBinary> binary,
            std::vector<CoreId> allowed_cores)
        : pid_(pid), name_(std::move(name)), binary_(std::move(binary)),
          allowed_cores_(std::move(allowed_cores))
    {
    }

    ProcessId pid() const { return pid_; }
    const std::string &name() const { return name_; }
    /** CR3 is derived from the pid; unique per address space. */
    std::uint64_t cr3() const
    {
        return 0x1000000ull + static_cast<std::uint64_t>(pid_) * 0x2000;
    }
    const ProgramBinary &binary() const { return *binary_; }
    const AppProfile &profile() const { return binary_->profile(); }
    const std::vector<CoreId> &allowedCores() const
    {
        return allowed_cores_;
    }

    const std::vector<Thread *> &threads() const { return threads_; }
    void addThread(Thread *t) { threads_.push_back(t); }

  private:
    ProcessId pid_;
    std::string name_;
    std::shared_ptr<const ProgramBinary> binary_;
    std::vector<CoreId> allowed_cores_;
    std::vector<Thread *> threads_;
};

/** Scheduling state of a thread. */
enum class ThreadState : std::uint8_t {
    kReady,
    kRunning,
    kBlocked,
};

/**
 * Supplies work to a thread and reacts to its completion. Compute
 * workloads refill forever; service workloads assign per-request work
 * and block the thread when the queue is empty.
 */
class ThreadDriver
{
  public:
    virtual ~ThreadDriver() = default;

    /**
     * The thread exhausted its assigned work at `now`. Return true if
     * new work was assigned (thread keeps running); false to block it.
     */
    virtual bool onWorkExhausted(Thread &t, Cycles now) = 0;
};

/** Driver for always-runnable compute workloads. */
class ComputeDriver final : public ThreadDriver
{
  public:
    bool
    onWorkExhausted(Thread &t, Cycles now) override;
};

/** A kernel-schedulable thread. */
class Thread
{
  public:
    Thread(ThreadId tid, Process *proc, std::uint64_t seed)
        : tid_(tid), proc_(proc), exec_(&proc->binary(), seed),
          rng_(seed ^ 0x517cc1b727220a95ULL)
    {
        proc->addThread(this);
    }

    ThreadId tid() const { return tid_; }
    Process &process() { return *proc_; }
    const Process &process() const { return *proc_; }
    ExecutionContext &exec() { return exec_; }
    Rng &rng() { return rng_; }

    ThreadState state() const { return state_; }
    void setState(ThreadState s) { state_ = s; }

    CoreId lastCore() const { return last_core_; }
    void setLastCore(CoreId c) { last_core_ = c; }

    /** Remaining assigned work in instructions; <0 means unassigned. */
    double workRemaining() const { return work_remaining_; }
    void assignWork(double insns) { work_remaining_ = insns; }
    void
    consumeWork(double insns)
    {
        work_remaining_ -= insns;
    }

    ThreadDriver *driver() const { return driver_; }
    void setDriver(ThreadDriver *d) { driver_ = d; }

    TaskCounters &counters() { return counters_; }
    const TaskCounters &counters() const { return counters_; }

    /** Address of the instruction the thread will execute next. */
    std::uint64_t
    currentAddress() const
    {
        return proc_->binary().block(exec_.currentBlock()).address;
    }

    /** Function the thread is currently executing (for samplers). */
    std::uint32_t
    currentFunctionId() const
    {
        return proc_->binary().block(exec_.currentBlock()).function_id;
    }

    /** Total observed CPI so far (user time only). */
    double
    cpi() const
    {
        return counters_.insns
                   ? static_cast<double>(counters_.user_cycles) /
                         static_cast<double>(counters_.insns)
                   : 0.0;
    }

  private:
    ThreadId tid_;
    Process *proc_;
    ExecutionContext exec_;
    Rng rng_;
    ThreadState state_ = ThreadState::kReady;
    CoreId last_core_ = kInvalidId;
    double work_remaining_ = -1.0;
    ThreadDriver *driver_ = nullptr;
    TaskCounters counters_;
};

}  // namespace exist

#endif  // EXIST_OS_TASK_H
