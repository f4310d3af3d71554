/**
 * @file
 * Ground-truth capture: a branch observer that records, outside the
 * simulated machine (zero cost), exactly what an exhaustive tracer
 * would see for the target process — its branch count, the
 * per-function instruction histogram, and optionally full block paths.
 * Decoded traces are scored against this (paper §5.3 uses exhaustive
 * NHT as the reference; the simulator lets us use the true execution).
 */
#ifndef EXIST_ANALYSIS_GROUND_TRUTH_H
#define EXIST_ANALYSIS_GROUND_TRUTH_H

#include <cstdint>
#include <vector>

#include "os/kernel.h"

namespace exist {

class GroundTruthRecorder final : public BranchObserver
{
  public:
    /** Start recording branches of `pid` on `kernel`. */
    void arm(Kernel &kernel, ProcessId pid, bool record_paths = false);

    /** Stop recording (keeps the data). */
    void disarm(Kernel &kernel);

    void onBranch(CoreId core, const Thread &t, const BranchRecord &rec,
                  Cycles now) override;

    std::uint64_t totalBranches() const { return total_branches_; }
    const std::vector<std::uint64_t> &functionInsns() const
    {
        return function_insns_;
    }
    /** Full block path per core (only when record_paths). */
    const std::vector<std::vector<std::uint32_t>> &paths() const
    {
        return paths_;
    }

  private:
    ProcessId pid_ = kInvalidId;
    bool record_paths_ = false;
    std::uint64_t total_branches_ = 0;
    std::vector<std::uint64_t> function_insns_;
    std::vector<std::vector<std::uint32_t>> paths_;
};

}  // namespace exist

#endif  // EXIST_ANALYSIS_GROUND_TRUTH_H
