#include "os/kernel.h"

#include <algorithm>

#include "util/logging.h"

namespace exist {

bool
ComputeDriver::onWorkExhausted(Thread &t, Cycles)
{
    // Compute workloads never run out of work.
    t.assignWork(1e15);
    return true;
}

Kernel::Kernel(const NodeConfig &cfg) : cfg_(cfg), rng_(cfg.seed)
{
    EXIST_ASSERT(cfg.num_cores > 0, "node needs at least one core");
    cores_.resize(static_cast<std::size_t>(cfg.num_cores));
    for (int c = 0; c < cfg.num_cores; ++c) {
        cores_[static_cast<std::size_t>(c)].id = c;
        cores_[static_cast<std::size_t>(c)].tracer =
            std::make_unique<CoreTracer>(c, &cpi_epoch_);
    }
}

Kernel::~Kernel() = default;

void
Kernel::runFor(Cycles duration)
{
    runUntil(queue_.now() + duration);
}

void
Kernel::runUntil(Cycles when)
{
    // Run slots and queued events draw their ids from one counter, so
    // firing the smaller (time, id) of the first of each is the order
    // one queue holding both would fire them in.
    while (true) {
        Core &core = firstRunSlot();
        const EventKey ev = queue_.nextKey();
        if (core.run_slot < ev) {
            if (core.run_slot.when > when)
                break;
            queue_.advanceTo(core.run_slot.when);
            core.run_slot = kNoRunSlot;
            runCore(core.id, when);
        } else {
            if (ev.when == EventQueue::kMaxTime || ev.when > when)
                break;
            queue_.step();
        }
    }
    if (queue_.now() < when)
        queue_.advanceTo(when);
}

Process *
Kernel::createProcess(const std::string &name,
                      std::shared_ptr<const ProgramBinary> binary,
                      std::vector<CoreId> allowed_cores)
{
    if (allowed_cores.empty()) {
        allowed_cores.resize(static_cast<std::size_t>(numCores()));
        for (int c = 0; c < numCores(); ++c)
            allowed_cores[static_cast<std::size_t>(c)] = c;
    }
    for (CoreId c : allowed_cores)
        EXIST_ASSERT(c >= 0 && c < numCores(), "bad core %d in affinity",
                     c);
    processes_.push_back(std::make_unique<Process>(
        next_pid_++, name, std::move(binary), std::move(allowed_cores)));
    return processes_.back().get();
}

Thread *
Kernel::createThread(Process *proc, ThreadDriver *driver)
{
    auto t = std::make_unique<Thread>(next_tid_++, proc,
                                      rng_.fork(0x7431).next());
    t->setDriver(driver ? driver : &compute_driver_);
    t->setState(ThreadState::kBlocked);
    threads_.push_back(std::move(t));
    return threads_.back().get();
}

void
Kernel::startThread(Thread *t)
{
    wakeThread(t);
}

void
Kernel::wakeThread(Thread *t)
{
    if (t->state() != ThreadState::kBlocked)
        return;
    t->setState(ThreadState::kReady);
    enqueue(t);
}

Process *
Kernel::findProcess(const std::string &name) const
{
    for (const auto &p : processes_)
        if (p->name() == name)
            return p.get();
    return nullptr;
}

CoreId
Kernel::pickCoreFor(Thread *t) const
{
    const auto &allowed = t->process().allowedCores();
    CoreId best = allowed.front();
    std::size_t best_score = ~std::size_t{0};
    for (CoreId c : allowed) {
        const Core &core = cores_[static_cast<std::size_t>(c)];
        std::size_t score =
            core.runq.size() + (core.current != nullptr ? 1 : 0);
        if (score < best_score) {
            best_score = score;
            best = c;
        }
    }
    // Stickiness: stay on the previous core unless it is clearly more
    // loaded than the best candidate (mirrors wake-affine behaviour and
    // gives CPU-share pods their "tend to execute on few cores" shape).
    CoreId last = t->lastCore();
    if (last != kInvalidId &&
        std::find(allowed.begin(), allowed.end(), last) != allowed.end()) {
        const Core &lc = cores_[static_cast<std::size_t>(last)];
        std::size_t lscore =
            lc.runq.size() + (lc.current != nullptr ? 1 : 0);
        if (lscore <= best_score + 1)
            return last;
    }
    return best;
}

void
Kernel::enqueue(Thread *t)
{
    CoreId c = pickCoreFor(t);
    Core &core = cores_[static_cast<std::size_t>(c)];
    core.runq.push_back(t);
    if (!core.current)
        scheduleRun(c, std::max(queue_.now(), core.cursor));
}

void
Kernel::scheduleRun(CoreId c, Cycles when)
{
    Core &core = cores_[static_cast<std::size_t>(c)];
    if (core.run_slot.id != kInvalidEvent)
        return;
    core.run_slot =
        EventKey{std::max(when, queue_.now()), queue_.reserveId()};
}

Kernel::Core &
Kernel::firstRunSlot()
{
    Core *first = &cores_.front();
    for (Core &core : cores_)
        if (core.run_slot < first->run_slot)
            first = &core;
    return *first;
}

EventKey
Kernel::firstKeyBesides(const Core &self)
{
    EventKey first = queue_.nextKey();
    for (const Core &core : cores_)
        if (&core != &self)
            first = std::min(first, core.run_slot);
    return first;
}

void
Kernel::recordSwitch(Cycles now, CoreId cpu, Thread *t, bool in)
{
    if (!switch_log_armed_ || t == nullptr)
        return;
    if (switch_log_filter_ != kInvalidId &&
        t->process().pid() != switch_log_filter_)
        return;
    switch_log_.push_back(SwitchRecord{
        now, cpu, t->process().pid(), t->tid(), in ? 1u : 0u});
}

void
Kernel::contextSwitch(Core &core, Thread *next, Cycles now)
{
    Thread *prev = core.current;
    if (prev == next)
        return;

    Cycles cost = costs::kContextSwitch;
    for (auto &[id, hook] : switch_hooks_)
        cost += hook(now, core.id, prev, next);

    if (prev) {
        recordSwitch(now, core.id, prev, false);
        if (prev->state() == ThreadState::kRunning)
            prev->setState(ThreadState::kReady);
    }

    if (next) {
        recordSwitch(now + cost, core.id, next, true);
        ++total_switches_;
        ++next->counters().context_switches;
        if (next->lastCore() != kInvalidId &&
            next->lastCore() != core.id) {
            ++next->counters().migrations;
            cost += costs::kMigrationPenalty;
        }
        next->counters().kernel_cycles += cost;
        next->setState(ThreadState::kRunning);
        next->setLastCore(core.id);
    }
    core.kernel_cycles += cost;
    core.cursor = now + cost;
    core.quantum_end = core.cursor + costs::kQuantum;
    core.last_switch_in = core.cursor;

    if (!prev != !next) {
        busy_cores_ += next ? 1 : -1;
        ++cpi_epoch_;  // busy-core count and SMT siblings moved
    }

    core.current = next;

    // Tell the hardware tracer what the core executes now.
    core.tracer->onContextSwitch(
        next ? next->process().cr3() : 0,
        next ? next->currentAddress() : 0, core.cursor);
}

void
Kernel::dispatch(Core &core, Cycles now)
{
    Thread *next = nullptr;
    while (!core.runq.empty()) {
        Thread *cand = core.runq.front();
        core.runq.pop_front();
        if (cand->state() == ThreadState::kReady) {
            next = cand;
            break;
        }
    }
    contextSwitch(core, next, now);
}

int
Kernel::writeBackTracersActive() const
{
    int n = 0;
    for (const auto &core : cores_)
        if (core.tracer->packetEn() && !core.tracer->cacheBypass())
            ++n;
    return n;
}

double
Kernel::effectiveCpi(Core &core, const Thread &t)
{
    const AppProfile &p = t.process().profile();
    if (core.cpi_profile == &p && core.cpi_epoch == cpi_epoch_)
        return core.cpi;
    double cpi = p.base_cpi;

    // Co-location interference on the shared LLC.
    int others = std::max(0, busy_cores_ - 1);
    double interference =
        p.llc_sensitivity * static_cast<double>(std::min(others, 12));

    // SMT sibling contention.
    if (cfg_.smt) {
        CoreId sib = core.id ^ 1;
        if (sib < numCores() &&
            cores_[static_cast<std::size_t>(sib)].current != nullptr)
            interference += p.smt_sensitivity;
    }

    // LLC pollution from write-back trace output on other cores.
    int wb = writeBackTracersActive();
    if (core.tracer->packetEn() && !core.tracer->cacheBypass())
        --wb;
    if (wb > 0)
        interference += costs::kTracePollutionWeight * p.llc_sensitivity *
                        static_cast<double>(std::min(wb, 4));

    // Local trace-write bandwidth tax while this core emits packets.
    double tax = 0.0;
    if (core.tracer->packetEn())
        tax = core.tracer->cacheBypass() ? costs::kTraceTaxBypass
                                         : costs::kTraceTaxWriteBack;

    core.cpi_profile = &p;
    core.cpi_epoch = cpi_epoch_;
    core.cpi = cpi * (1.0 + interference) * (1.0 + tax);
    return core.cpi;
}

bool
Kernel::handleSyscallInternal(Core &core, Thread &t, Cycles &cursor)
{
    const AppProfile &prof = t.process().profile();
    ++t.counters().syscalls;

    Cycles cost =
        costs::kSyscallBase + usToCycles(prof.syscall_kernel_us);
    for (auto &[id, hook] : syscall_hooks_)
        cost += hook(cursor, core.id, t);
    cursor += cost;
    core.kernel_cycles += cost;
    t.counters().kernel_cycles += cost;

    if (t.rng().bernoulli(prof.blocking_fraction)) {
        // Blocking syscall: park the thread; I/O completion wakes it.
        Cycles delay = usToCycles(
            t.rng().exponential(prof.blocking_io_us_mean));
        Thread *tp = &t;
        queue_.schedule(cursor + delay, [this, tp] { wakeThread(tp); });
        return true;
    }

    // Fast syscall: back to user mode; packet generation resumes.
    core.tracer->onUserResume(t.process().cr3(), t.currentAddress(),
                              cursor);
    return false;
}

void
Kernel::runCore(CoreId c, Cycles until)
{
    Core &core = cores_[static_cast<std::size_t>(c)];
    // firstKeyBesides(core), read again only once the queue's version
    // has moved: nothing else changes another core's slot or the
    // queue's next key while this core runs.
    EventKey others = firstKeyBesides(core);
    std::uint64_t seen = queue_.version();
    auto refresh = [&] {
        if (queue_.version() != seen) {
            others = firstKeyBesides(core);
            seen = queue_.version();
        }
    };

    while (true) {
        if (!core.current) {
            dispatch(core, std::max(queue_.now(), core.cursor));
            if (!core.current)
                return;
        }
        // Clip at the node's next event: a queued one or any run slot.
        refresh();
        runSlice(core, std::min(others.when, core.run_slot.when));

        if (core.current) {
            // This slot's own id moves no other key.
            const bool unmoved = queue_.version() == seen;
            scheduleRun(c, core.cursor);
            if (unmoved)
                seen = queue_.version();
        }
        // Fire the fresh slot here when runUntil would fire it next.
        refresh();
        if (core.run_slot.when > until || !(core.run_slot < others))
            return;
        queue_.advanceTo(core.run_slot.when);
        core.run_slot = kNoRunSlot;
    }
}

void
Kernel::runSlice(Core &core, Cycles next_ev)
{
    const CoreId c = core.id;
    const Cycles now = std::max(queue_.now(), core.cursor);
    Thread *t = core.current;
    const AppProfile &prof = t->process().profile();
    const ProgramBinary &binary = t->process().binary();
    const std::uint64_t cr3 = t->process().cr3();
    CoreTracer &tracer = *core.tracer;

    Cycles slice_end = std::min(core.quantum_end, now + costs::kMaxSlice);
    if (next_ev != EventQueue::kMaxTime && next_ev > now)
        slice_end = std::min(slice_end, next_ev);

    const double cpi = effectiveCpi(core, *t);
    Cycles cursor = now;
    bool blocked = false;
    double cycle_debt = 0.0;

    do {
        if (core.pending_interrupt) {
            cursor += core.pending_interrupt;
            core.kernel_cycles += core.pending_interrupt;
            t->counters().kernel_cycles += core.pending_interrupt;
            core.pending_interrupt = 0;
        }

        StepResult s = t->exec().step();
        cycle_debt += static_cast<double>(s.insns) * cpi;
        auto cost = static_cast<Cycles>(cycle_debt);
        cycle_debt -= static_cast<double>(cost);
        cursor += cost;

        TaskCounters &tc = t->counters();
        tc.insns += s.insns;
        tc.user_cycles += cost;
        double kinsn = static_cast<double>(s.insns) / 1000.0;
        tc.branch_misses += prof.branch_miss_pki * kinsn;
        tc.l1_misses += prof.l1_miss_pki * kinsn;
        double llc_pki = prof.llc_miss_pki;
        if (tracer.packetEn() && !tracer.cacheBypass())
            llc_pki *= 1.0 + costs::kTraceLlcMissInflation;
        tc.llc_misses += llc_pki * kinsn;

        if (branch_observer_)
            branch_observer_->onBranch(c, *t, s.branch, cursor);

        tracer.onBranch(s.branch, binary, cursor, cr3, true);
        if (pmi_handler_) {
            int pmis = tracer.takePmis();
            while (pmis-- > 0) {
                Cycles pc = pmi_handler_(c, cursor);
                cursor += pc;
                core.kernel_cycles += pc;
                tc.kernel_cycles += pc;
            }
        }

        t->consumeWork(static_cast<double>(s.insns));

        if (s.syscall) {
            if (s.branch.kind != BranchKind::kSyscall)
                tracer.onSyscallEntry(cursor);
            if (handleSyscallInternal(core, *t, cursor)) {
                blocked = true;
                break;
            }
        }

        if (t->workRemaining() <= 0.0) {
            if (!t->driver()->onWorkExhausted(*t, cursor)) {
                blocked = true;
                break;
            }
        }
    } while (cursor < slice_end);

    core.busy += cursor - now;
    core.cursor = cursor;

    if (blocked) {
        t->setState(ThreadState::kBlocked);
        dispatch(core, cursor);
    } else if (cursor >= core.quantum_end && !core.runq.empty()) {
        t->setState(ThreadState::kReady);
        core.runq.push_back(t);
        dispatch(core, cursor);
    }
}

int
Kernel::addSchedSwitchHook(SchedSwitchHook hook)
{
    int id = next_hook_id_++;
    switch_hooks_.emplace(id, std::move(hook));
    return id;
}

void
Kernel::removeSchedSwitchHook(int id)
{
    switch_hooks_.erase(id);
}

int
Kernel::addSyscallHook(SyscallHook hook)
{
    int id = next_hook_id_++;
    syscall_hooks_.emplace(id, std::move(hook));
    return id;
}

void
Kernel::removeSyscallHook(int id)
{
    syscall_hooks_.erase(id);
}

int
Kernel::addInterruptSource(const InterruptSource &src)
{
    EXIST_ASSERT(src.period > 0, "interrupt source needs a period");
    int id = next_hook_id_++;
    interrupt_sources_.emplace(id, src);
    for (int c = 0; c < numCores(); ++c)
        armInterruptTick(id, c);
    return id;
}

void
Kernel::removeInterruptSource(int id)
{
    interrupt_sources_.erase(id);
}

void
Kernel::armInterruptTick(int id, CoreId c)
{
    auto it = interrupt_sources_.find(id);
    if (it == interrupt_sources_.end())
        return;
    queue_.schedule(queue_.now() + it->second.period, [this, id, c] {
        auto iter = interrupt_sources_.find(id);
        if (iter == interrupt_sources_.end())
            return;  // source removed; stop ticking
        Core &core = cores_[static_cast<std::size_t>(c)];
        if (core.current) {
            core.pending_interrupt += iter->second.cost;
            iter->second.handler(c, core.current);
            // The debt is consumed next slice; make sure one runs.
            scheduleRun(c, queue_.now());
        } else {
            iter->second.handler(c, nullptr);
        }
        armInterruptTick(id, c);
    });
}

void
Kernel::armSwitchLog(ProcessId pid_filter)
{
    switch_log_armed_ = true;
    switch_log_filter_ = pid_filter;
    switch_log_.clear();
}

void
Kernel::disarmSwitchLog()
{
    switch_log_armed_ = false;
}

std::vector<SwitchRecord>
Kernel::takeSwitchLog()
{
    return std::move(switch_log_);
}

void
Kernel::setTimer(Cycles when, std::function<void()> fn)
{
    queue_.schedule(when, std::move(fn));
}

TaskCounters
Kernel::aggregateCounters() const
{
    TaskCounters total;
    for (const auto &t : threads_)
        total.accumulate(t->counters());
    return total;
}

}  // namespace exist
