/**
 * @file
 * OTC — Operation-aware Tracing Controller (paper §3.2). The kernel
 * hooker injects a hook at the sched_switch tracepoint that enables a
 * core's tracer the *first* time the target process is scheduled onto
 * it, and deliberately does nothing on sched-out or repeat sched-in:
 * the hardware CR3 filter already suppresses packets for other
 * processes at zero software cost. This reduces costly MSR control
 * sequences from O(#context switches) to O(#cores). A high-resolution
 * timer bounds the tracing period and disables every touched tracer at
 * expiry, preventing infinite tracing.
 */
#ifndef EXIST_CORE_OTC_H
#define EXIST_CORE_OTC_H

#include <functional>
#include <vector>

#include "core/uma.h"
#include "os/kernel.h"
#include "util/types.h"

namespace exist {

class OperationAwareController
{
  public:
    struct Config {
        Process *target = nullptr;
        Cycles period = secondsToCycles(0.5);
        UmaPlan plan;
        /** Ring instead of compulsory STOP buffers (ablation). */
        bool ring_buffers = false;
        /** CYC timing packets (off = control-flow-only tracing). */
        bool cyc_timing = true;
        /**
         * Ablation of the paper's central claim: manipulate the tracer
         * at *every* context switch (disable on sched-out, enable on
         * sched-in), the conventional O(#switches) control paradigm,
         * instead of the enable-once O(#cores) hooker.
         */
        bool eager_control = false;
        /** Called (in timer context) when the HRT stops the session. */
        std::function<void()> on_stop;
    };

    /** Configure tracers per the UMA plan and arm the hook + HRT. */
    void start(Kernel &kernel, const Config &cfg);

    /** Disable all touched tracers and remove the hook (idempotent). */
    void stop(Kernel &kernel);

    bool active() const { return hook_id_ != 0; }

    /** Control-operation accounting (the paper's O(#core) claim). */
    std::uint64_t controlOps() const { return control_ops_; }
    std::uint64_t msrWrites() const { return msr_writes_; }
    /** Cores whose tracer was enabled during the session. */
    const std::vector<CoreId> &enabledCores() const
    {
        return enabled_cores_;
    }

  private:
    int hook_id_ = 0;
    ProcessId target_pid_ = kInvalidId;
    std::vector<CoreId> planned_cores_;
    std::vector<bool> core_enabled_;
    std::vector<CoreId> enabled_cores_;
    std::uint64_t control_ops_ = 0;
    std::uint64_t msr_writes_ = 0;
    bool stopped_ = false;
};

}  // namespace exist

#endif  // EXIST_CORE_OTC_H
