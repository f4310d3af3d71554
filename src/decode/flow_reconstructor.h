/**
 * @file
 * Execution-flow reconstruction: replays the program binary against the
 * packet stream, following statically-resolvable transfers from the
 * binary, consuming TNT bits at conditionals and TIP targets at
 * indirect transfers. This is the software-decoder stage of the paper's
 * pipeline (libipt equivalent) that turns per-core packet bytes back
 * into human-readable application behaviour.
 *
 * Two layers of repetition-awareness sit on the hot path (DESIGN.md
 * §11): a per-binary immutable BlockCache shared read-only across all
 * decode workers, and a per-stream TNT-run memo that retires k
 * conditional outcomes per table hit. Both are behind
 * DecodeOptions::block_cache / tnt_memo_bits and change only the
 * speed, never the output: every fast-path apply is count-for-count
 * the transitions the slow path would have made.
 */
#ifndef EXIST_DECODE_FLOW_RECONSTRUCTOR_H
#define EXIST_DECODE_FLOW_RECONSTRUCTOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "decode/packet_parser.h"
#include "decode/small_buffers.h"
#include "decode/tnt_memo.h"
#include "util/types.h"
#include "workload/program.h"

namespace exist {

/** A contiguous decoded span of execution (between PGE and PGD). */
struct DecodedSegment {
    Cycles start_time = 0;  ///< from TSC/CYC packets, approximate
    Cycles end_time = 0;
    std::uint64_t first_offset = 0;  ///< byte offset where it began
    std::uint64_t branches = 0;      ///< block transitions decoded
};

/**
 * Fast-path telemetry for one decoded stream. Pure observability:
 * the values depend on chunking and warm-up, so they are excluded
 * from every identity comparison (unlike everything else in
 * DecodedTrace, which is a pure function of the input bytes).
 */
struct DecodeCacheStats {
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t memo_unusable = 0;
    std::uint64_t memo_evictions = 0;
    /** TNT bits retired through the memo fast path. */
    std::uint64_t memo_fast_bits = 0;
    /** Memo table + arena footprint at finish. */
    std::uint64_t memo_bytes = 0;
    /** Shared BlockCache table footprint (whole binary, not a share). */
    std::uint64_t block_cache_bytes = 0;
};

/** The reconstruction result for one core's trace buffer. */
struct DecodedTrace {
    std::vector<DecodedSegment> segments;

    /** Block transitions decoded in total (== sum over segments). */
    std::uint64_t branches_decoded = 0;
    /** Instructions attributed (sum of insns of visited blocks). */
    std::uint64_t insns_decoded = 0;

    /** Per-function visit-instruction counts (index = function id). */
    std::vector<std::uint64_t> function_insns;
    /** Per-function entry counts (calls decoded into the function). */
    std::vector<std::uint64_t> function_entries;
    /** Optional full block path (only filled when record_path). */
    std::vector<std::uint32_t> block_path;

    /** PTWRITE payloads in stream order with their timestamps
     *  (SS6.1 data-flow enhancement). */
    std::vector<std::pair<Cycles, std::uint64_t>> ptwrites;

    std::uint64_t tnt_bits_consumed = 0;
    std::uint64_t tips_consumed = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t resyncs = 0;

    /** Fast-path telemetry; never part of identity comparisons. */
    DecodeCacheStats cache_stats;
};

/** Options for reconstruction. */
struct DecodeOptions {
    /** Record the full block path (memory-heavy; used by tests and the
     *  accuracy analysis, not by overhead experiments). */
    bool record_path = false;
    /** Safety valve for pathological inputs. */
    std::uint64_t max_branches = 400'000'000;
    /** Use the per-binary BlockCache (off: walk workload::Program
     *  directly — the legacy slow path, kept as the reference). */
    bool block_cache = true;
    /** TNT-run memo window size in bits; 0 disables memoization.
     *  Clamped to [0, TntMemo::kMaxBits]. Needs block_cache. 6 retires
     *  half again as many outcomes per table hit as 4 while the
     *  per-block pattern space (2^k) still keeps the hot working set
     *  cache-resident; much larger windows thrash on branchy
     *  workloads (hit rate collapses by k = 16). */
    int tnt_memo_bits = 6;
};

/**
 * The decode state machine for one core's byte stream: packet parser
 * position, pending TNT/TIP queues, open segment and resume hints.
 * FlowReconstructor::decode runs one per buffer; the result is a pure
 * function of the buffer's bytes.
 */
class FlowStream
{
  public:
    /** `cache` may share a prebuilt BlockCache across streams; when
     *  null and opts.block_cache is set, the shared per-binary cache
     *  is fetched (built once) from BlockCache::forBinary(). `pool`
     *  (optional, must outlive the stream) recycles warm TNT memos
     *  across streams of the same reconstructor. */
    explicit FlowStream(const ProgramBinary *prog, DecodeOptions opts = {},
                        std::shared_ptr<const BlockCache> cache = nullptr,
                        TntMemoPool *pool = nullptr);

    FlowStream(const FlowStream &) = delete;
    FlowStream &operator=(const FlowStream &) = delete;
    ~FlowStream();

    /** Decode the complete buffer `data[0, n)` and return the result.
     *  Call exactly once. */
    DecodedTrace decode(const std::uint8_t *data, std::size_t n);

  private:
    void openSegment(std::uint64_t offset);
    void closeSegment();
    void visit(std::uint32_t block);
    void drain(bool defer_tail = false);
    template <typename Access> void visitT(const Access &acc,
                                           std::uint32_t block);
    template <typename Access> void transitionT(const Access &acc,
                                                std::uint32_t next,
                                                bool from_packet);
    template <typename Access>
    void drainT(const Access &acc, bool defer_tail);
    bool tryMemoRun();
    void materializeTail();
    std::uint32_t blockAt(std::uint64_t addr) const;
    void handlePacket(const Packet &pkt);
    DecodedTrace seal();

    const ProgramBinary *prog_;
    DecodeOptions opts_;
    std::shared_ptr<const BlockCache> cache_;  ///< null: legacy walk
    std::unique_ptr<TntMemo> memo_;            ///< null: bit-by-bit
    TntMemoPool *memo_pool_ = nullptr;  ///< memo_ returns here at seal
    /** Memo stats at stream start (a pooled memo arrives warm); the
     *  per-stream cache_stats are deltas against this. */
    TntMemo::Stats memo_stats_base_;
    PacketParser parser_{nullptr, 0};
    DecodedTrace out_;

    std::uint32_t cur_ = kNoBlock;
    Cycles time_ = 0;
    bool segment_open_ = false;
    bool after_resync_ = false;
    bool at_syscall_ = false;  ///< waiting for the PGD/PGE pair
    DecodedSegment seg_;
    TntBitQueue tnt_queue_;
    SmallRing<std::uint64_t, 8> tip_queue_;
    std::uint32_t resume_hint_ = kNoBlock;
    // Blocks visited since the last packet-consuming transition: the
    // decoder reaches them by statically walking ahead of the last
    // encoded branch, so a PGD may land "behind" them and the matching
    // PGE re-enter one of them without re-execution having happened in
    // between. Resuming must not re-visit them.
    //
    // Keep only a short window (kDecodeStaticTailMax): this is the
    // resume-disambiguation set, and an overly long one mistakes a
    // different thread's PGE (same CR3, per-core multiplexing) for a
    // static-overshoot resume, which desynchronizes decode far more
    // than the duplicate visits a false fresh-open costs.
    InlineVec<std::uint32_t, kDecodeStaticTailMax> static_tail_;
    InlineVec<std::uint32_t, kDecodeStaticTailMax> saved_tail_;
    // Lazy static tail: after a memo run the tail usually dies unused
    // (the next packet-consuming transition clears it), so applying a
    // run only records the entry's arena tail *offset* here — not even
    // resolved to a pointer — and the copy into static_tail_ happens
    // on the rare reads/extensions (materializeTail). While stale_ is
    // set, static_tail_ is out of date.
    std::uint32_t lazy_tail_off_ = 0;
    std::uint8_t lazy_tail_len_ = 0;
    bool lazy_tail_stale_ = false;
    bool finished_ = false;
};

/**
 * Reconstructor bound to one binary (the paper's decoder fetches the
 * binary from a repository keyed by the traced application). Builds —
 * or joins — the binary's shared BlockCache once, so every stream it
 * opens (one per worker in ParallelDecoder) reads the same table.
 */
class FlowReconstructor
{
  public:
    explicit FlowReconstructor(const ProgramBinary *prog,
                               DecodeOptions opts = {})
        : prog_(prog), opts_(opts),
          cache_(opts.block_cache ? BlockCache::forBinary(prog) : nullptr)
    {
    }

    /** Decode one core's trace bytes. */
    DecodedTrace decode(const std::uint8_t *data, std::size_t size) const;

    DecodedTrace
    decode(const std::vector<std::uint8_t> &bytes) const
    {
        return decode(bytes.data(), bytes.size());
    }

  private:
    const ProgramBinary *prog_;
    DecodeOptions opts_;
    std::shared_ptr<const BlockCache> cache_;
    /** Warm TNT memos recycled across this reconstructor's decodes
     *  (decode() is const and concurrent; the pool is internally
     *  locked and each decode owns its memo exclusively). */
    mutable TntMemoPool memo_pool_;
};

}  // namespace exist

#endif  // EXIST_DECODE_FLOW_RECONSTRUCTOR_H
