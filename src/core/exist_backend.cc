#include "core/exist_backend.h"

#include "hwtrace/packet.h"
#include "util/logging.h"

namespace exist {

void
ExistBackend::start(Kernel &kernel, const SessionSpec &spec)
{
    EXIST_ASSERT(spec.target != nullptr, "EXIST needs a target");
    kernel_ = &kernel;
    collected_log_ = false;
    switch_log_.clear();

    UmaConfig ucfg;
    ucfg.budget_mb = spec.budget_mb;
    ucfg.min_core_buffer_mb = spec.min_core_buffer_mb;
    ucfg.max_core_buffer_mb = spec.max_core_buffer_mb;
    ucfg.sample_ratio = spec.core_sample_ratio;
    plan_ = UsageAwareMemoryAllocator::plan(kernel, *spec.target, ucfg);

    OperationAwareController::Config ocfg;
    ocfg.target = spec.target;
    ocfg.period = spec.period;
    ocfg.plan = plan_;
    ocfg.ring_buffers = spec.ring_buffers;
    ocfg.cyc_timing = spec.cyc_timing;
    ocfg.eager_control = spec.exist_eager_control;
    ocfg.on_stop = [this, &kernel] {
        // Keep the sidecar before anything else disarms it.
        if (!collected_log_) {
            switch_log_ = kernel.takeSwitchLog();
            collected_log_ = true;
        }
    };
    otc_.start(kernel, ocfg);
}

void
ExistBackend::stop(Kernel &kernel)
{
    otc_.stop(kernel);
    if (!collected_log_) {
        switch_log_ = kernel.takeSwitchLog();
        collected_log_ = true;
    }
}

BackendStats
ExistBackend::stats() const
{
    BackendStats s;
    s.msr_writes = otc_.msrWrites();
    s.control_ops = otc_.controlOps();
    s.traced_cores = plan_.allocations.size();
    if (kernel_) {
        for (const CoreAllocation &a : plan_.allocations) {
            const CoreTracer &tr = kernel_->tracer(a.core);
            s.trace_real_bytes += tr.output().bytesAccepted() *
                                  kTraceByteScale;
            s.dropped_real_bytes += tr.output().bytesDropped() *
                                    kTraceByteScale;
        }
    }
    return s;
}

std::vector<CollectedTrace>
ExistBackend::collect()
{
    std::vector<CollectedTrace> out;
    if (!kernel_)
        return out;
    for (const CoreAllocation &a : plan_.allocations) {
        TopaBuffer &buf = kernel_->tracer(a.core).output();
        CollectedTrace ct;
        ct.core = a.core;
        std::vector<std::uint8_t> bytes;
        // Copy without resetting the hardware buffer: order the ring
        // content oldest-first like the drain path does.
        const auto &store = buf.data();
        std::uint64_t wrap = buf.wrapOffset();
        if (!buf.hasWrapped()) {
            std::uint64_t n =
                buf.bytesAccepted() > buf.capacity()
                    ? buf.capacity()
                    : buf.bytesAccepted();
            bytes.assign(store.begin(),
                         store.begin() + static_cast<std::ptrdiff_t>(n));
        } else {
            bytes.assign(store.begin() +
                             static_cast<std::ptrdiff_t>(wrap),
                         store.end());
            bytes.insert(bytes.end(), store.begin(),
                         store.begin() +
                             static_cast<std::ptrdiff_t>(wrap));
        }
        ct.bytes = std::move(bytes);
        out.push_back(std::move(ct));
    }
    return out;
}

}  // namespace exist
