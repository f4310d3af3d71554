/**
 * @file
 * Per-binary decode block cache: the flow reconstructor's working set,
 * flattened. FlowStream resolves every block transition against
 * `workload::ProgramBinary`, whose BasicBlock records are 40 bytes,
 * carry fields the decoder never reads (addresses, indirect tables,
 * taken probabilities), and put the function-entry test one extra
 * pointer chase away (`prog->function(fid).entry_block`). BlockCache
 * precomputes exactly what decode needs — successor ids, instruction
 * count, owning function, entry flag — into one dense 16-byte-per-block
 * table indexed by block id.
 *
 * The cache is immutable after construction (ProgramBinary itself is
 * immutable, so there is nothing to invalidate) and shared read-only
 * across every decode worker of a session via shared_ptr; forBinary()
 * keeps a process-wide registry so all decoders of the same binary —
 * serial, parallel, any shard — share one table.
 */
#ifndef EXIST_DECODE_BLOCK_CACHE_H
#define EXIST_DECODE_BLOCK_CACHE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "workload/branch.h"
#include "workload/program.h"

namespace exist {

/**
 * One block's decode view. 16 bytes, cache-line-friendly: a hot loop
 * of four blocks fits in a single line where the BasicBlock walk
 * touched three.
 */
struct BlockInfo {
    std::uint32_t target0 = kNoBlock;  ///< taken / static / callee
    std::uint32_t target1 = kNoBlock;  ///< not-taken / syscall resume
    std::uint32_t function_id = 0;
    std::uint16_t insns = 0;
    std::uint8_t kind = 0;  ///< BranchKind, narrowed
    std::uint8_t flags = 0;

    static constexpr std::uint8_t kFunctionEntry = 1u << 0;

    BranchKind branchKind() const
    {
        return static_cast<BranchKind>(kind);
    }
    bool isFunctionEntry() const
    {
        return (flags & kFunctionEntry) != 0;
    }
};

/** Immutable flat successor table for one ProgramBinary. */
class BlockCache
{
  public:
    explicit BlockCache(const ProgramBinary &prog);

    const BlockInfo &info(std::uint32_t block) const
    {
        return blocks_[block];
    }
    std::uint32_t numBlocks() const
    {
        return static_cast<std::uint32_t>(blocks_.size());
    }

    /**
     * TIP-address resolution: ProgramBinary::blockAtAddress semantics
     * (any address inside a block maps to it) at hash-probe cost for
     * the case the encoder actually produces — exact block starts.
     * Misses (mid-block or foreign addresses, i.e. corrupt streams)
     * fall back to the legacy range search, so the result is identical
     * for every input by construction.
     */
    std::uint32_t
    blockAt(std::uint64_t addr) const
    {
        const std::size_t mask = addr_slots_.size() - 1;
        std::uint64_t h = addr * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 32;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            const AddrSlot &s = addr_slots_[i];
            if (s.addr == addr)
                return s.block;
            if (s.addr == kEmptyAddr)
                return prog_->blockAtAddress(addr);
        }
    }

    /** Table footprint, published as decode.cache.bytes. */
    std::uint64_t bytes() const
    {
        return blocks_.size() * sizeof(BlockInfo) +
               addr_slots_.size() * sizeof(AddrSlot);
    }

    /**
     * The shared cache for `prog`, built on first request. Keyed by
     * binary identity (address): safe because a live cache pins no
     * binary but is only ever held by decoders whose binary outlives
     * them, so a reused address implies the old cache already expired.
     */
    static std::shared_ptr<const BlockCache>
    forBinary(const ProgramBinary *prog);

  private:
    /** Open-addressing slot for the exact-start address index. No
     *  valid instruction address is all-ones. */
    struct AddrSlot {
        std::uint64_t addr = kEmptyAddr;
        std::uint32_t block = kNoBlock;
    };
    static constexpr std::uint64_t kEmptyAddr = ~0ULL;

    std::vector<BlockInfo> blocks_;
    std::vector<AddrSlot> addr_slots_;
    const ProgramBinary *prog_;  ///< legacy fallback for inexact hits
};

}  // namespace exist

#endif  // EXIST_DECODE_BLOCK_CACHE_H
