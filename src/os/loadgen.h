/**
 * @file
 * Load generators driving services: an open-loop Poisson generator
 * and a closed-loop one (memtier/ab/sysbench stand-ins), both
 * measuring end-to-end response times.
 */
#ifndef EXIST_OS_LOADGEN_H
#define EXIST_OS_LOADGEN_H

#include <cstdint>

#include "os/kernel.h"
#include "os/service.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/types.h"

namespace exist {

/** Open-loop Poisson request generator. */
class PoissonLoadGen
{
  public:
    PoissonLoadGen(Kernel *kernel, Service *target,
                   double requests_per_second, std::uint64_t seed);

    /** Begin generating; runs until stop() or simulation end. */
    void start();
    void stop() { running_ = false; }

    /** Ignore completions before this absolute time (warm-up). */
    void setWarmupUntil(Cycles t) { warmup_until_ = t; }

    /** End-to-end latency samples in microseconds. */
    const Samples &latencies() const { return latencies_; }
    std::uint64_t issued() const { return issued_; }
    std::uint64_t completed() const { return completed_; }

  private:
    void scheduleNext();

    Kernel *kernel_;
    Service *target_;
    double rps_;
    Rng rng_;
    bool running_ = false;
    Cycles warmup_until_ = 0;
    Samples latencies_;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
};

/**
 * Closed-loop generator: N concurrent clients, each submitting its next
 * request as soon as the previous one completes. This is how
 * memtier/ab/sysbench drive their targets, and it is what makes
 * *throughput* sensitive to service-time inflation — the metric of
 * paper Figure 14.
 */
class ClosedLoopLoadGen
{
  public:
    ClosedLoopLoadGen(Kernel *kernel, Service *target, int clients,
                      std::uint64_t seed);

    void start();
    void stop() { running_ = false; }

    void setWarmupUntil(Cycles t) { warmup_until_ = t; }

    const Samples &latencies() const { return latencies_; }
    std::uint64_t issued() const { return issued_; }
    std::uint64_t completed() const { return completed_; }

  private:
    void submitOne();

    Kernel *kernel_;
    Service *target_;
    int clients_;
    Rng rng_;
    bool running_ = false;
    Cycles warmup_until_ = 0;
    Samples latencies_;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
};

}  // namespace exist

#endif  // EXIST_OS_LOADGEN_H
