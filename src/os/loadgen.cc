#include "os/loadgen.h"

#include <algorithm>

namespace exist {

PoissonLoadGen::PoissonLoadGen(Kernel *kernel, Service *target,
                               double requests_per_second,
                               std::uint64_t seed)
    : kernel_(kernel), target_(target), rps_(requests_per_second),
      rng_(seed)
{
}

void
PoissonLoadGen::start()
{
    running_ = true;
    scheduleNext();
}

void
PoissonLoadGen::scheduleNext()
{
    if (!running_)
        return;
    double gap_s = rng_.exponential(1.0 / rps_);
    kernel_->queue().scheduleAfter(secondsToCycles(gap_s), [this] {
        if (!running_)
            return;
        Cycles submitted = kernel_->now();
        ++issued_;
        target_->submit(submitted, [this, submitted](Cycles done) {
            ++completed_;
            if (submitted >= warmup_until_) {
                latencies_.add(static_cast<double>(done - submitted) /
                               static_cast<double>(kCyclesPerUs));
            }
        });
        scheduleNext();
    });
}

ClosedLoopLoadGen::ClosedLoopLoadGen(Kernel *kernel, Service *target,
                                     int clients, std::uint64_t seed)
    : kernel_(kernel), target_(target), clients_(clients), rng_(seed)
{
}

void
ClosedLoopLoadGen::start()
{
    running_ = true;
    for (int i = 0; i < clients_; ++i) {
        // Stagger client starts slightly to avoid a synchronized burst.
        kernel_->queue().scheduleAfter(
            usToCycles(rng_.uniform(0.0, 50.0)), [this] { submitOne(); });
    }
}

void
ClosedLoopLoadGen::submitOne()
{
    if (!running_)
        return;
    Cycles submitted = kernel_->now();
    ++issued_;
    target_->submit(submitted, [this, submitted](Cycles done) {
        ++completed_;
        if (submitted >= warmup_until_) {
            latencies_.add(static_cast<double>(done - submitted) /
                           static_cast<double>(kCyclesPerUs));
        }
        kernel_->queue().schedule(std::max(done, kernel_->now()),
                                  [this] { submitOne(); });
    });
}

}  // namespace exist
