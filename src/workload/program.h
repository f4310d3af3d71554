/**
 * @file
 * The static program model: a generated "binary" consisting of functions
 * made of basic blocks with realistic control-transfer structure. The
 * same object plays two roles, exactly as a real binary does for Intel
 * PT: the execution engine walks it to produce branch events, and the
 * trace decoder walks it again, consuming TNT bits and TIP targets, to
 * reconstruct the execution flow.
 */
#ifndef EXIST_WORKLOAD_PROGRAM_H
#define EXIST_WORKLOAD_PROGRAM_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "workload/app_profile.h"
#include "workload/branch.h"
#include "workload/function_category.h"

namespace exist {

/** Sentinel for "no static target". */
inline constexpr std::uint32_t kNoBlock = 0xffffffffu;

/**
 * A basic block. Targets are global block indices. For kConditional,
 * target0 is the taken target and target1 the fall-through; for direct
 * calls target0 is the callee entry and target1 the return-to block;
 * for kSyscall target1 is the continuation after kernel return; for
 * indirect transfers the candidate targets live in the program's
 * indirect-target table.
 */
struct BasicBlock {
    std::uint64_t address = 0;
    std::uint32_t function_id = 0;
    std::uint16_t insns = 0;
    std::uint16_t size_bytes = 0;
    BranchKind kind = BranchKind::kDirectJump;
    std::uint32_t target0 = kNoBlock;
    std::uint32_t target1 = kNoBlock;
    /** Taken probability for kConditional, scaled by 1e4. */
    std::uint16_t prob_taken_x1e4 = 5000;
    /** Range in ProgramBinary::indirect_targets for indirect kinds. */
    std::uint32_t itable_begin = 0;
    std::uint32_t itable_count = 0;
};

/** A function: a named, categorized contiguous range of blocks. */
struct ProgramFunction {
    std::string name;
    FunctionCategory category = FunctionCategory::kCompute;
    std::uint32_t entry_block = 0;
    std::uint32_t first_block = 0;
    std::uint32_t num_blocks = 0;
    std::uint64_t base_address = 0;
    std::uint32_t size_bytes = 0;
};

/** Weighted candidate of an indirect branch. */
struct IndirectTarget {
    std::uint32_t block;
    float cumulative_weight;  ///< cumulative in [0,1] within the table
};

/**
 * An immutable generated binary. Generation is deterministic in
 * (profile, seed): two nodes running "the same deployment" of an app
 * generate identical binaries, which is what lets the cluster-level
 * optimizer merge traces from different workers (paper §3.4).
 */
class ProgramBinary
{
  public:
    /** Generate a binary for the given application profile. */
    static ProgramBinary generate(const AppProfile &profile,
                                  std::uint64_t seed);

    const std::string &name() const { return name_; }
    const AppProfile &profile() const { return profile_; }

    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    const std::vector<ProgramFunction> &functions() const
    {
        return functions_;
    }
    const std::vector<IndirectTarget> &indirectTargets() const
    {
        return indirect_targets_;
    }

    const BasicBlock &block(std::uint32_t i) const { return blocks_[i]; }
    const ProgramFunction &function(std::uint32_t i) const
    {
        return functions_[i];
    }

    std::uint32_t numBlocks() const
    {
        return static_cast<std::uint32_t>(blocks_.size());
    }
    std::uint32_t numFunctions() const
    {
        return static_cast<std::uint32_t>(functions_.size());
    }

    /** Entry block of the program's main loop. */
    std::uint32_t entryBlock() const
    {
        return functions_[0].entry_block;
    }

    /** Map an instruction address to a block index; kNoBlock if none.
     *  Used by the decoder to resolve TIP payloads. */
    std::uint32_t blockAtAddress(std::uint64_t addr) const;

    /** The entry of `b`'s indirect-target table a uniform draw `u` in
     *  [0,1] selects, as an index into indirectTargets(). Non-decreasing
     *  in `u`; two entries may name one block. */
    std::uint32_t indirectEntry(const BasicBlock &b, double u) const;

  private:
    ProgramBinary() = default;

    std::string name_;
    AppProfile profile_;
    std::vector<BasicBlock> blocks_;
    std::vector<ProgramFunction> functions_;
    std::vector<IndirectTarget> indirect_targets_;
    // Sorted block start addresses for blockAtAddress.
    std::vector<std::uint64_t> block_addresses_;
};

}  // namespace exist

#endif  // EXIST_WORKLOAD_PROGRAM_H
