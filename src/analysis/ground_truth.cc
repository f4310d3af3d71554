#include "analysis/ground_truth.h"

#include "util/logging.h"

namespace exist {

void
GroundTruthRecorder::arm(Kernel &kernel, ProcessId pid, bool record_paths)
{
    pid_ = pid;
    record_paths_ = record_paths;
    total_branches_ = 0;
    paths_.assign(static_cast<std::size_t>(kernel.numCores()), {});
    function_insns_.clear();
    kernel.setBranchObserver(this);
}

void
GroundTruthRecorder::disarm(Kernel &kernel)
{
    kernel.setBranchObserver(nullptr);
}

void
GroundTruthRecorder::onBranch(CoreId core, const Thread &t,
                              const BranchRecord &rec, Cycles)
{
    if (t.process().pid() != pid_)
        return;
    const ProgramBinary &prog = t.process().binary();
    if (function_insns_.empty())
        function_insns_.assign(prog.numFunctions(), 0);
    const BasicBlock &b = prog.block(rec.source_block);
    ++total_branches_;
    function_insns_[b.function_id] += b.insns;
    if (record_paths_)
        paths_[static_cast<std::size_t>(core)].push_back(
            rec.source_block);
}

}  // namespace exist
