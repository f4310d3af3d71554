/**
 * @file
 * Branch event vocabulary shared between the program model (which
 * produces branch events) and the hardware tracer (which encodes them
 * into Intel-PT-style packets).
 */
#ifndef EXIST_WORKLOAD_BRANCH_H
#define EXIST_WORKLOAD_BRANCH_H

#include <cstdint>

namespace exist {

/**
 * Kind of control transfer terminating a basic block. The split mirrors
 * what Intel PT can and cannot see: direct jumps/calls generate no
 * packets (the decoder follows them statically from the binary), while
 * conditional branches generate TNT bits and indirect transfers generate
 * TIP packets.
 */
enum class BranchKind : std::uint8_t {
    kConditional,   ///< TNT bit
    kDirectJump,    ///< no packet
    kDirectCall,    ///< no packet
    kIndirectJump,  ///< TIP
    kIndirectCall,  ///< TIP
    kReturn,        ///< TIP (return compression not modelled)
    kSyscall,       ///< control enters the kernel; PIP/MODE boundary
};

/** One retired control transfer, as seen by tracer and ground truth. */
struct BranchRecord {
    std::uint32_t source_block;  ///< global block index of the source
    std::uint32_t target_block;  ///< global block index of the target
    BranchKind kind;
    bool taken;  ///< meaningful for kConditional only
};

}  // namespace exist

#endif  // EXIST_WORKLOAD_BRANCH_H
