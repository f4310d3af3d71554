#include "core/otc.h"

#include <algorithm>

#include "hwtrace/packet.h"
#include "hwtrace/tracer.h"
#include "util/logging.h"

namespace exist {

void
OperationAwareController::start(Kernel &kernel, const Config &cfg)
{
    EXIST_ASSERT(cfg.target != nullptr, "OTC needs a target");
    EXIST_ASSERT(hook_id_ == 0, "OTC already active");

    target_pid_ = cfg.target->pid();
    const std::uint64_t cr3 = cfg.target->cr3();
    stopped_ = false;
    planned_cores_.clear();
    enabled_cores_.clear();
    core_enabled_.assign(static_cast<std::size_t>(kernel.numCores()),
                         false);

    // Configure every planned core's tracer up front (tracing is still
    // disabled, so this is architecturally legal). The cost is burned
    // by the facility daemon, not by application threads.
    for (const CoreAllocation &a : cfg.plan.allocations) {
        TracerConfig tc;
        tc.cr3_filter = true;
        tc.cr3_match = cr3;
        tc.cyc_en = cfg.cyc_timing;
        tc.tsc_en = true;
        tc.cache_bypass = true;  // ToPA regions mapped write-combining
        tc.topa_ring = cfg.ring_buffers;
        // One region holding this core's whole allocation, in model
        // bytes.
        tc.topa = {TopaEntry{a.real_bytes / kTraceByteScale,
                             /*stop=*/!cfg.ring_buffers,
                             /*intr=*/false}};
        auto res = kernel.tracer(a.core).configure(tc);
        EXIST_ASSERT(res.ok, "tracer configure failed on core %d",
                     a.core);
        msr_writes_ += 4;
        planned_cores_.push_back(a.core);
    }

    // Sidecar: record the five-tuple context-switch log so per-core
    // traces can be re-associated with threads afterwards.
    kernel.armSwitchLog(target_pid_);

    // The kernel hooker: enable-once-per-core on sched-in (or, for the
    // ablation, the conventional enable/disable at every switch).
    const bool eager = cfg.eager_control;
    hook_id_ = kernel.addSchedSwitchHook(
        [this, &kernel, cr3, eager](Cycles now, CoreId core,
                                    Thread *prev,
                                    Thread *next) -> Cycles {
            Cycles cost = 0;
            bool planned =
                std::find(planned_cores_.begin(), planned_cores_.end(),
                          core) != planned_cores_.end();
            if (!planned)
                return 0;
            if (eager && prev != nullptr &&
                prev->process().pid() == target_pid_ &&
                kernel.tracer(core).enabled()) {
                cost += kernel.tracer(core).disable(now).cost;
                core_enabled_[static_cast<std::size_t>(core)] = false;
                ++control_ops_;
                ++msr_writes_;
            }
            if (next == nullptr ||
                next->process().pid() != target_pid_)
                return cost;
            if (core_enabled_[static_cast<std::size_t>(core)])
                return cost;  // already armed: zero-cost fast path
            auto res = kernel.tracer(core).enable(
                now, cr3, next->currentAddress());
            core_enabled_[static_cast<std::size_t>(core)] = true;
            if (std::find(enabled_cores_.begin(), enabled_cores_.end(),
                          core) == enabled_cores_.end())
                enabled_cores_.push_back(core);
            ++control_ops_;
            ++msr_writes_;
            return cost + res.cost;
        });

    // Target threads already on-core when tracing begins.
    for (int c = 0; c < kernel.numCores(); ++c) {
        Thread *t = kernel.runningOn(c);
        if (t && t->process().pid() == target_pid_ &&
            std::find(planned_cores_.begin(), planned_cores_.end(),
                      c) != planned_cores_.end() &&
            !core_enabled_[static_cast<std::size_t>(c)]) {
            kernel.tracer(c).enable(kernel.now(), cr3,
                                    t->currentAddress());
            core_enabled_[static_cast<std::size_t>(c)] = true;
            enabled_cores_.push_back(c);
            ++control_ops_;
            ++msr_writes_;
        }
    }

    // HRT bounding the period: proactive termination for robustness.
    auto on_stop = cfg.on_stop;
    kernel.setTimer(kernel.now() + cfg.period,
                    [this, &kernel, on_stop] {
                        stop(kernel);
                        if (on_stop)
                            on_stop();
                    });
}

void
OperationAwareController::stop(Kernel &kernel)
{
    if (stopped_)
        return;
    stopped_ = true;
    if (hook_id_ != 0) {
        kernel.removeSchedSwitchHook(hook_id_);
        hook_id_ = 0;
    }
    kernel.disarmSwitchLog();
    // Disable the tracers of all scheduled cores: prevents infinite
    // tracing and improves robustness (paper §3.2).
    for (CoreId c : enabled_cores_) {
        kernel.tracer(c).disable(kernel.now());
        ++msr_writes_;
        ++control_ops_;
    }
}

}  // namespace exist
