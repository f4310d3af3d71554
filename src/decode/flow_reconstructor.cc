#include "decode/flow_reconstructor.h"

#include <algorithm>

#include "util/logging.h"
#include "workload/branch.h"

namespace exist {

/*
 * A property of the real hardware this decoder must honour: the tracer
 * buffers up to six conditional outcomes before emitting a TNT packet,
 * while TIP packets are emitted immediately — so a TIP can appear in
 * the byte stream *before* TNT bits describing earlier branches.
 * Per-kind order is exact, though, so the decoder (like libipt) keeps
 * separate FIFO queues of pending TNT bits and TIP targets and pulls
 * from whichever the current block's terminator requires. PacketEn
 * boundaries flush pending TNT bits, so queues drain at PGD.
 */

namespace {

/**
 * The decoder's per-block working set, resolved either from the flat
 * BlockCache (fast path) or from workload::Program (legacy reference
 * path, kept bit-for-bit as the cache-off baseline). drainT/visitT
 * are templated over these so both paths share one state machine.
 */
struct BlockView {
    std::uint32_t target0;
    std::uint32_t target1;
    std::uint32_t function_id;
    std::uint16_t insns;
    BranchKind kind;
};

/** Deferred-drain flush threshold (bits). TNT packets carry 6 bits
 *  (up to 60 when the parser batches a run), so this defers ~2-5
 *  batched packets — dozens of full memo windows retire per drain and
 *  the drain entry/exit overhead amortizes away. */
constexpr std::size_t kTntDeferBits = 192;

struct CacheAccess {
    const BlockCache *c;

    BlockView
    view(std::uint32_t b) const
    {
        const BlockInfo &bi = c->info(b);
        return BlockView{bi.target0, bi.target1, bi.function_id,
                         bi.insns, bi.branchKind()};
    }
    bool
    isEntry(std::uint32_t b, std::uint32_t) const
    {
        return c->info(b).isFunctionEntry();
    }
    std::uint32_t
    blockAt(std::uint64_t addr) const
    {
        return c->blockAt(addr);
    }
};

struct ProgAccess {
    const ProgramBinary *p;

    BlockView
    view(std::uint32_t b) const
    {
        const BasicBlock &bb = p->block(b);
        return BlockView{bb.target0, bb.target1, bb.function_id,
                         bb.insns, bb.kind};
    }
    bool
    isEntry(std::uint32_t b, std::uint32_t fid) const
    {
        return p->function(fid).entry_block == b;
    }
    std::uint32_t
    blockAt(std::uint64_t addr) const
    {
        return p->blockAtAddress(addr);
    }
};

}  // namespace

FlowStream::FlowStream(const ProgramBinary *prog, DecodeOptions opts,
                       std::shared_ptr<const BlockCache> cache,
                       TntMemoPool *pool)
    : prog_(prog), opts_(opts), memo_pool_(pool)
{
    if (opts_.block_cache)
        cache_ = cache != nullptr ? std::move(cache)
                                  : BlockCache::forBinary(prog_);
    int k = std::clamp(opts_.tnt_memo_bits, 0,
                       static_cast<int>(TntMemo::kMaxBits));
    // The memo skips the per-visit path recording, so it only engages
    // when the full block path is not requested.
    if (cache_ != nullptr && k > 0 && !opts_.record_path) {
        if (memo_pool_ != nullptr)
            memo_ = memo_pool_->acquire(static_cast<unsigned>(k),
                                        cache_.get());
        if (memo_ == nullptr)
            memo_ = std::make_unique<TntMemo>(static_cast<unsigned>(k),
                                              cache_.get());
        memo_stats_base_ = memo_->stats();
    }
    out_.function_insns.assign(prog_->numFunctions(), 0);
    out_.function_entries.assign(prog_->numFunctions(), 0);
}

FlowStream::~FlowStream()
{
    // A stream abandoned before decode() still returns its memo.
    if (memo_ != nullptr && memo_pool_ != nullptr)
        memo_pool_->release(std::move(memo_));
}

void
FlowStream::openSegment(std::uint64_t offset)
{
    seg_ = DecodedSegment{};
    seg_.start_time = time_;
    seg_.first_offset = offset;
    segment_open_ = true;
}

void
FlowStream::materializeTail()
{
    if (!lazy_tail_stale_)
        return;
    static_tail_.clear();
    if (lazy_tail_len_ != 0) {
        const std::uint32_t *t = memo_->tailAt(lazy_tail_off_);
        for (std::uint8_t i = 0; i < lazy_tail_len_; ++i)
            static_tail_.push_back(t[i]);
    }
    lazy_tail_stale_ = false;
}

void
FlowStream::closeSegment()
{
    if (segment_open_) {
        seg_.end_time = time_;
        out_.segments.push_back(seg_);
        segment_open_ = false;
    }
    materializeTail();
    resume_hint_ = cur_;
    saved_tail_ = static_tail_;
    cur_ = kNoBlock;
    at_syscall_ = false;
    // Unconsumed queue entries at a boundary indicate loss.
    out_.decode_errors += tnt_queue_.size() + tip_queue_.size();
    tnt_queue_.clear();
    tip_queue_.clear();
}

template <typename Access>
void
FlowStream::visitT(const Access &acc, std::uint32_t block)
{
    const BlockView v = acc.view(block);
    out_.insns_decoded += v.insns;
    out_.function_insns[v.function_id] += v.insns;
    if (acc.isEntry(block, v.function_id))
        ++out_.function_entries[v.function_id];
    if (opts_.record_path)
        out_.block_path.push_back(block);
}

void
FlowStream::visit(std::uint32_t block)
{
    if (cache_ != nullptr)
        visitT(CacheAccess{cache_.get()}, block);
    else
        visitT(ProgAccess{prog_}, block);
}

template <typename Access>
void
FlowStream::transitionT(const Access &acc, std::uint32_t next,
                        bool from_packet)
{
    cur_ = next;
    visitT(acc, cur_);
    ++out_.branches_decoded;
    ++seg_.branches;
    if (from_packet) {
        static_tail_.clear();
        lazy_tail_stale_ = false;
    } else {
        materializeTail();
    }
    if (static_tail_.size() < static_tail_.capacity())
        static_tail_.push_back(next);
}

/**
 * Retire a whole memoized TNT run: one table lookup consumes up to k
 * pending outcomes plus every statically-resolvable transfer between
 * them. The entry's counters are exactly what the slow path below
 * would have added (TntMemo replays the same transitions at build
 * time), so applying it is invisible in the output. Falls back —
 * returning false — whenever the entry is unbuildable or would cross
 * the branch budget; the slow path then handles the edge precisely.
 */
bool
FlowStream::tryMemoRun()
{
    const unsigned k = memo_->k();
    const std::uint32_t window_mask = (1u << k) - 1;
    // Stream-wide totals accumulate in locals across the chained runs
    // and flush once at the end: six read-modify-writes per run become
    // six per drain visit, which is measurable at memo hit rates.
    std::uint64_t bits_total = 0;
    std::uint64_t branches_total = 0;
    std::uint64_t insns_total = 0;
    // Inline-delta runs chain within one function for long stretches
    // (a loop body), so their per-function counts accumulate in
    // registers and flush only when the function changes — not per
    // lookup. Pure reassociation of commutative adds: totals match
    // the slow path exactly.
    std::uint32_t acc_fn = kNoBlock;
    std::uint64_t acc_insns = 0;
    std::uint64_t acc_entries = 0;
    auto flushFn = [&]() {
        if (acc_fn != kNoBlock) {
            out_.function_insns[acc_fn] += acc_insns;
            out_.function_entries[acc_fn] += acc_entries;
            acc_insns = 0;
            acc_entries = 0;
            acc_fn = kNoBlock;
        }
    };
    bool chain = true;
    while (chain) {
        // Pull up to 64 pending outcomes into a register once, then
        // chain run after run by shifting locally; the queue is popped
        // once per refill instead of once per lookup.
        const unsigned avail = static_cast<unsigned>(
            std::min<std::size_t>(tnt_queue_.size(), 64));
        if (avail < k)
            break;
        std::uint64_t win = tnt_queue_.peekBits64(avail);
        unsigned consumed = 0;
        while (avail - consumed >= k) {
            const TntMemo::Entry *e = memo_->lookupOrBuild(
                cur_, static_cast<std::uint32_t>(win) & window_mask);
            if (e == nullptr) {
                chain = false;
                break;
            }
            if (out_.branches_decoded + branches_total +
                    e->branchCount() >
                opts_.max_branches) {
                chain = false;
                break;
            }
            const unsigned bits_used = e->bitsUsed();
            win >>= bits_used;
            consumed += bits_used;
            branches_total += e->branchCount();
            insns_total += e->insns;
            const unsigned dl = e->deltaLen();
            if (dl == 0) {
                // Single-function run, delta inlined in the entry:
                // the apply touches no payload cache line, and the
                // counts ride in registers until the function changes.
                if (e->fn != acc_fn) {
                    flushFn();
                    acc_fn = e->fn;
                }
                acc_insns += e->insns;
                acc_entries += e->inlineEntries();
            } else {
                flushFn();
                const TntMemo::FnDelta *deltas = memo_->deltas(e);
                for (unsigned i = 0; i < dl; ++i) {
                    const TntMemo::FnDelta &d = deltas[i];
                    out_.function_insns[d.fn] += d.insns;
                    out_.function_entries[d.fn] += d.entries;
                }
            }
            // The run's first transition is packet-consuming, which
            // clears the tail — so the entry's final tail is
            // independent of ours. It is only *borrowed* here (as an
            // arena offset; not even resolved to a pointer): the next
            // transition usually clears it again unread, and the rare
            // readers materialize the copy. A scratch
            // (arena-over-budget) entry's payload dies on the next
            // lookup, so that one is copied eagerly.
            cur_ = e->end_block;
            lazy_tail_len_ = static_cast<std::uint8_t>(e->tailLen());
            if (memo_->isScratch(e)) {
                static_tail_.clear();
                const std::uint32_t *t = memo_->tail(e);
                for (std::uint8_t i = 0; i < lazy_tail_len_; ++i)
                    static_tail_.push_back(t[i]);
                lazy_tail_stale_ = false;
            } else {
                lazy_tail_off_ = e->tailOffset();
                lazy_tail_stale_ = true;
            }
            // The entry records whether its run ended at a conditional
            // with the window exhausted — i.e. whether the next k bits
            // begin another run — so chaining needs no BlockInfo read.
            if (!e->chainable()) {
                chain = false;
                break;
            }
        }
        tnt_queue_.popBits(consumed);
        bits_total += consumed;
    }
    flushFn();
    if (bits_total == 0)
        return false;
    out_.tnt_bits_consumed += bits_total;
    out_.branches_decoded += branches_total;
    seg_.branches += branches_total;
    out_.insns_decoded += insns_total;
    out_.cache_stats.memo_fast_bits += bits_total;
    return true;
}

// Replay as far as the queued packets allow. With defer_tail (a drain
// triggered by TNT accumulation on a memo-enabled stream), a sub-window
// remainder (< k bits) is left queued for the next drain instead of
// being walked bit by bit: the bits are consumed at the same walk
// position either way, so the output cannot differ, and the remainder
// usually completes a full memoized window once more packets land.
template <typename Access>
void
FlowStream::drainT(const Access &acc, bool defer_tail)
{
    while (cur_ != kNoBlock &&
           out_.branches_decoded < opts_.max_branches) {
        const BlockView v = acc.view(cur_);
        switch (v.kind) {
          case BranchKind::kDirectJump:
          case BranchKind::kDirectCall:
            transitionT(acc, v.target0, /*from_packet=*/false);
            continue;
          case BranchKind::kConditional: {
            if (memo_ != nullptr && tnt_queue_.size() >= memo_->k() &&
                tryMemoRun())
                continue;  // a whole run retired; cur_ advanced
            if (tnt_queue_.empty())
                return;
            if (defer_tail && memo_ != nullptr &&
                tnt_queue_.size() < memo_->k())
                return;
            bool taken = tnt_queue_.front();
            tnt_queue_.pop_front();
            ++out_.tnt_bits_consumed;
            transitionT(acc, taken ? v.target0 : v.target1,
                        /*from_packet=*/true);
            continue;
          }
          case BranchKind::kIndirectJump:
          case BranchKind::kIndirectCall:
          case BranchKind::kReturn: {
            if (tip_queue_.empty())
                return;
            std::uint64_t ip = tip_queue_.front();
            tip_queue_.pop_front();
            ++out_.tips_consumed;
            std::uint32_t nb = acc.blockAt(ip);
            if (nb == kNoBlock) {
                ++out_.decode_errors;
                closeSegment();
                return;
            }
            transitionT(acc, nb, /*from_packet=*/true);
            continue;
          }
          case BranchKind::kSyscall:
            // The tracer emits PGD here and PGE at kernel return;
            // hold position until those arrive.
            at_syscall_ = true;
            return;
        }
    }
}

void
FlowStream::drain(bool defer_tail)
{
    if (cache_ != nullptr)
        drainT(CacheAccess{cache_.get()}, defer_tail);
    else
        drainT(ProgAccess{prog_}, defer_tail);
}

std::uint32_t
FlowStream::blockAt(std::uint64_t addr) const
{
    return cache_ != nullptr ? cache_->blockAt(addr)
                             : prog_->blockAtAddress(addr);
}

void
FlowStream::handlePacket(const Packet &pkt)
{
    // Memo-enabled streams defer the per-TNT-packet drain so whole
    // k-bit windows accumulate for tryMemoRun (the writer flushes TNT
    // packets at 6 bits, so an eager drain would never see a full
    // window). Packets that read or reset walk state (flushDeferred in
    // their case below) first replay the queue to exactly the state the
    // eager drain would have reached. Timing and sideband packets
    // (TSC/CYC/PTW/PIP/MODE/PAD) are exempt: the deferred portion of a
    // drain consumes TNT bits only — every TIP is consumed at its own
    // arrival packet under either discipline — and that walk never
    // reads the clock, so draining across them is invisible in the
    // output.
    auto flushDeferred = [this] {
        if (memo_ != nullptr && !tnt_queue_.empty())
            drain();
    };
    switch (pkt.op) {
      case PacketOp::kExt:
        flushDeferred();
        if (pkt.value == kExtPsb)
            after_resync_ = parser_.resyncCount() > 0;
        break;
      case PacketOp::kTsc:
        time_ = pkt.value;
        break;
      case PacketOp::kCyc:
        time_ += pkt.value;
        break;
      case PacketOp::kTipPge: {
        flushDeferred();
        std::uint32_t b = blockAt(pkt.value);
        if (b == kNoBlock) {
            ++out_.decode_errors;
            break;
        }
        if (at_syscall_ && segment_open_ && cur_ != kNoBlock) {
            // Kernel return: continue the current segment at the
            // syscall continuation.
            at_syscall_ = false;
            if (cache_ != nullptr) {
                transitionT(CacheAccess{cache_.get()}, b,
                            /*from_packet=*/true);
            } else {
                transitionT(ProgAccess{prog_}, b, /*from_packet=*/true);
            }
            drain();
            break;
        }
        if (segment_open_)
            closeSegment();
        openSegment(parser_.offset());
        // When execution resumes where — or statically behind
        // where — the previous segment's decode stopped, the
        // blocks from b to resume_hint were already visited by the
        // static walk that outran the encoded branches; re-visiting
        // them would duplicate path entries. Resume in place.
        bool in_tail = b == resume_hint_;
        for (std::uint32_t tb : saved_tail_)
            in_tail = in_tail || tb == b;
        if (in_tail && resume_hint_ != kNoBlock) {
            cur_ = resume_hint_;
            static_tail_ = saved_tail_;
        } else {
            cur_ = b;
            static_tail_.clear();
            static_tail_.push_back(b);
            visit(cur_);
        }
        drain();
        break;
      }
      case PacketOp::kTipPgd:
        flushDeferred();
        if (at_syscall_) {
            // Expected filter exit at syscall entry: keep the
            // segment open; the matching PGE resumes it.
            break;
        }
        closeSegment();
        break;
      case PacketOp::kTnt6:
        tnt_queue_.pushBits(pkt.tnt_bits,
                            static_cast<unsigned>(pkt.tnt_count));
        if (memo_ == nullptr || tnt_queue_.size() >= kTntDeferBits)
            drain(/*defer_tail=*/memo_ != nullptr);
        break;
      case PacketOp::kTip:
        flushDeferred();
        tip_queue_.push_back(pkt.value);
        drain();
        break;
      case PacketOp::kFup:
        flushDeferred();
        // After a mid-stream resync (ring wrap), the FUP inside
        // the PSB block is the decoder's re-entry point.
        if (after_resync_ && !segment_open_ && pkt.value != 0) {
            std::uint32_t b = blockAt(pkt.value);
            if (b != kNoBlock) {
                openSegment(parser_.offset());
                cur_ = b;
                visit(cur_);
                drain();
            }
            after_resync_ = false;
        }
        break;
      case PacketOp::kOvf:
        flushDeferred();
        ++out_.decode_errors;
        closeSegment();
        break;
      case PacketOp::kPtw:
        out_.ptwrites.emplace_back(time_, pkt.value);
        break;
      case PacketOp::kPip:
      case PacketOp::kMode:
      case PacketOp::kPad:
      case PacketOp::kTntPartial:
        break;
    }
}

DecodedTrace
FlowStream::seal()
{
    // Flush any TNT bits still deferred for the memo window before the
    // boundary accounting below can mistake them for loss.
    if (memo_ != nullptr && !tnt_queue_.empty())
        drain();
    closeSegment();
    out_.resyncs = parser_.resyncCount();
    if (memo_ != nullptr) {
        // Deltas against the acquire-time snapshot: a pooled memo
        // arrives warm and its lifetime counters keep running.
        const TntMemo::Stats ms = memo_->stats();
        out_.cache_stats.memo_hits = ms.hits - memo_stats_base_.hits;
        out_.cache_stats.memo_misses =
            ms.misses - memo_stats_base_.misses;
        out_.cache_stats.memo_unusable =
            ms.unusable - memo_stats_base_.unusable;
        out_.cache_stats.memo_evictions =
            ms.evictions - memo_stats_base_.evictions;
        out_.cache_stats.memo_bytes = memo_->bytes();
        if (memo_pool_ != nullptr)
            memo_pool_->release(std::move(memo_));
    }
    if (cache_ != nullptr)
        out_.cache_stats.block_cache_bytes = cache_->bytes();
    finished_ = true;
    return std::move(out_);
}

DecodedTrace
FlowStream::decode(const std::uint8_t *data, std::size_t n)
{
    EXIST_ASSERT(!finished_, "FlowStream decoded twice");
    parser_ = PacketParser(data, n);
    // The loop's one-packet lookahead past the branch budget is part
    // of the output: after the budget check fails, exactly one more
    // packet has been consumed and dropped.
    Packet pkt;
    while (parser_.next(pkt)) {
        if (out_.branches_decoded >= opts_.max_branches)
            break;
        handlePacket(pkt);
    }
    return seal();
}

DecodedTrace
FlowReconstructor::decode(const std::uint8_t *data, std::size_t size) const
{
    return FlowStream(prog_, opts_, cache_, &memo_pool_).decode(data, size);
}

}  // namespace exist
