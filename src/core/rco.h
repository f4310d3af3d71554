/**
 * @file
 * RCO — Repetition-aware Coverage Optimizer (paper §3.4). Cluster-level
 * policy over application metadata:
 *
 *  - The temporal decider picks a tracing period from a weighted sum of
 *    complexity factors: operator-defined priority, binary size, and
 *    the number of previous stability issues.
 *  - The spatial sampler picks which repetitions (replicas) to trace:
 *    all of them for anomaly requests; a density- and priority-scaled
 *    fraction for routine profiling, with a deployment threshold
 *    guaranteeing observation of single-replica applications.
 */
#ifndef EXIST_CORE_RCO_H
#define EXIST_CORE_RCO_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace exist {

/** Cluster-visible metadata of one deployed application. */
struct AppDeployment {
    std::string app;
    double priority = 0.5;           ///< [0,1]
    std::uint64_t binary_bytes = 0;
    int past_incidents = 0;
    int replicas = 1;
    /** True when the request was triggered by a detected anomaly. */
    bool anomaly = false;
    /** Measured reference monitoring overhead (fraction), fed back from
     *  previous sessions to bound the tracing settings. */
    double reference_overhead = 0.001;
};

struct RcoConfig {
    double w_priority = 0.4;
    double w_size = 0.3;
    double w_incidents = 0.3;
    Cycles min_period = secondsToCycles(0.1);
    Cycles max_period = secondsToCycles(2.0);
    /** Node overhead ceiling; periods shrink if the reference overhead
     *  exceeds it. */
    double overhead_budget = 0.002;
    /** Minimum repetitions traced regardless of policy. */
    int deployment_threshold = 1;
    /** Profiling fraction of replicas at priority 1.0. */
    double max_profile_fraction = 0.5;
};

class RepetitionAwareCoverageOptimizer
{
  public:
    explicit RepetitionAwareCoverageOptimizer(RcoConfig cfg = {})
        : cfg_(cfg)
    {
    }

    /** Application complexity in [0,1] (temporal decider input). */
    double complexity(const AppDeployment &d) const;

    /** Temporal decider: tracing period for this application. */
    Cycles decidePeriod(const AppDeployment &d) const;

    /** Spatial sampler: how many repetitions to trace. */
    int decideRepetitions(const AppDeployment &d) const;

    /** Pick the concrete worker indices (0..replicas-1) to trace. */
    std::vector<int> selectWorkers(const AppDeployment &d, Rng &rng) const;

    const RcoConfig &config() const { return cfg_; }

  private:
    RcoConfig cfg_;
};

/**
 * Cross-request coverage accounting for the RCO (paper §3.4): how much
 * observation each application has accumulated. Controllers record one
 * entry per completed TraceRequest *in request-id order* (the sharded
 * control plane sequences this through its commit log), so the ledger
 * contents are deterministic and identical between the serial and the
 * sharded reconcile paths for the same submit stream.
 */
class CoverageLedger
{
  public:
    struct AppCoverage {
        std::uint64_t requests = 0;  ///< completed TraceRequests
        std::uint64_t sessions = 0;  ///< worker-node sessions traced
        std::uint64_t trace_bytes = 0;
        Cycles last_period = 0;  ///< period of the latest request

        bool operator==(const AppCoverage &) const = default;
    };

    void recordRequest(const std::string &app, std::uint64_t sessions,
                       Cycles period, std::uint64_t trace_bytes);

    /** Per-app totals; nullptr when the app was never traced. */
    const AppCoverage *find(const std::string &app) const;

    std::uint64_t totalRequests() const { return total_requests_; }
    std::uint64_t totalSessions() const { return total_sessions_; }

    /** Full per-app view (durability snapshots serialize this). */
    const std::map<std::string, AppCoverage> &apps() const
    {
        return apps_;
    }

    /** Recovery-only: install totals wholesale from a snapshot image
     *  (recordRequest would double-count replayed deltas). */
    void
    restore(std::map<std::string, AppCoverage> apps,
            std::uint64_t total_requests, std::uint64_t total_sessions)
    {
        apps_ = std::move(apps);
        total_requests_ = total_requests;
        total_sessions_ = total_sessions;
    }

    bool operator==(const CoverageLedger &) const = default;

  private:
    std::map<std::string, AppCoverage> apps_;
    std::uint64_t total_requests_ = 0;
    std::uint64_t total_sessions_ = 0;
};

}  // namespace exist

#endif  // EXIST_CORE_RCO_H
