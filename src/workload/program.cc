#include "workload/program.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace exist {

namespace {

/** Base address of generated text, mimicking a PIE binary layout. */
constexpr std::uint64_t kTextBase = 0x400000;
constexpr std::uint64_t kFunctionAlign = 0x100;
constexpr int kBytesPerInsn = 4;

FunctionCategory
sampleCategory(const AppProfile &p, Rng &rng)
{
    double u = rng.uniform();
    double acc = 0.0;
    for (std::size_t i = 0; i < kNumFunctionCategories; ++i) {
        acc += p.category_weights[i];
        if (u < acc)
            return static_cast<FunctionCategory>(i);
    }
    return FunctionCategory::kCompute;
}

}  // namespace

ProgramBinary
ProgramBinary::generate(const AppProfile &profile, std::uint64_t seed)
{
    ProgramBinary prog;
    prog.name_ = profile.name;
    prog.profile_ = profile;

    Rng rng(seed ^ 0xabcdef0123456789ULL);

    const int nfn = std::max(profile.num_functions, 2);
    prog.functions_.reserve(static_cast<std::size_t>(nfn));

    // Pass 1: lay out functions and blocks (terminators filled later so
    // call targets can reference any function).
    std::uint64_t addr = kTextBase;
    for (int f = 0; f < nfn; ++f) {
        ProgramFunction fn;
        fn.category = f == 0 ? FunctionCategory::kCompute
                             : sampleCategory(profile, rng);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s_%s_%03d",
                      f == 0 ? "main_loop" : "fn",
                      functionCategoryName(fn.category), f);
        fn.name = buf;
        fn.first_block = static_cast<std::uint32_t>(prog.blocks_.size());
        fn.entry_block = fn.first_block;

        int nblocks = static_cast<int>(
            rng.uniformInt(profile.min_blocks_per_fn,
                           profile.max_blocks_per_fn));
        // The main loop is the dispatcher driving the whole binary; it
        // is larger so each pass fans out over many call sites.
        if (f == 0)
            nblocks = std::max(nblocks * 3,
                               profile.max_blocks_per_fn * 3);
        fn.num_blocks = static_cast<std::uint32_t>(nblocks);

        addr = (addr + kFunctionAlign - 1) & ~(kFunctionAlign - 1);
        fn.base_address = addr;

        for (int b = 0; b < nblocks; ++b) {
            BasicBlock blk;
            blk.function_id = static_cast<std::uint32_t>(f);
            double span = profile.avg_insns_per_block;
            blk.insns = static_cast<std::uint16_t>(std::max<std::int64_t>(
                4, rng.uniformInt(static_cast<std::int64_t>(span * 0.5),
                                  static_cast<std::int64_t>(span * 1.5))));
            blk.size_bytes =
                static_cast<std::uint16_t>(blk.insns * kBytesPerInsn);
            blk.address = addr;
            addr += blk.size_bytes;
            prog.blocks_.push_back(blk);
        }
        fn.size_bytes = static_cast<std::uint32_t>(addr - fn.base_address);
        prog.functions_.push_back(std::move(fn));
    }
    // Pass 2: assign terminators and targets.
    const double wsum = profile.terminatorWeightSum();
    EXIST_ASSERT(wsum > 0, "profile %s has zero terminator weights",
                 profile.name.c_str());
    // Syscalls are a runtime overlay (see ExecutionContext), which keeps
    // their rate exact regardless of which CFG paths are hot. A small
    // structural sprinkling remains so the kSyscall decode path stays
    // exercised.
    const double p_syscall_block = 0.0005;

    for (std::size_t fidx = 0; fidx < prog.functions_.size(); ++fidx) {
        ProgramFunction &fn = prog.functions_[fidx];
        const std::uint32_t first = fn.first_block;
        const std::uint32_t count = fn.num_blocks;
        const bool is_main = fidx == 0;

        auto local_block = [&](std::uint32_t i) { return first + i; };

        for (std::uint32_t b = 0; b < count; ++b) {
            BasicBlock &blk = prog.blocks_[local_block(b)];
            const bool last = (b == count - 1);
            const std::uint32_t next =
                last ? fn.entry_block : local_block(b + 1);

            if (last) {
                // Function epilogue: return; the main loop jumps back to
                // its own entry instead (the program runs forever).
                blk.kind = is_main ? BranchKind::kDirectJump
                                   : BranchKind::kReturn;
                blk.target0 = is_main ? fn.entry_block : kNoBlock;
                continue;
            }

            if (rng.bernoulli(p_syscall_block)) {
                blk.kind = BranchKind::kSyscall;
                blk.target1 = next;
                continue;
            }

            // The main loop is the driver that must fan out over the
            // binary on every pass: no early returns, conditional
            // taken-edges only skip forward (a pass always flows entry
            // -> last -> entry), and a call-heavy mix — direct calls
            // plus indirect call sites with wide target tables — so
            // the reachable closure covers most functions, as the hot
            // path of a real service binary does.
            double wc = profile.w_cond, wdj = profile.w_djump;
            double wdc = profile.w_dcall, wij = profile.w_ijump;
            double wic = profile.w_icall, wr = profile.w_ret;
            if (is_main) {
                wc = 0.40;
                wdj = 0.08;
                wdc = 0.27;
                wij = 0.05;
                wic = 0.20;
                wr = 0.0;
            }
            double u = rng.uniform() * (wc + wdj + wdc + wij + wic + wr);
            if ((u -= wc) < 0) {
                blk.kind = BranchKind::kConditional;
                blk.target0 =
                    is_main ? local_block(
                                  b + 1 +
                                  static_cast<std::uint32_t>(
                                      rng.uniformInt(count - b - 1)))
                            : local_block(static_cast<std::uint32_t>(
                                  rng.uniformInt(count)));
                blk.target1 = next;
                double p = profile.taken_bias + rng.uniform(-0.25, 0.25);
                p = std::clamp(p, 0.05, 0.95);
                blk.prob_taken_x1e4 =
                    static_cast<std::uint16_t>(p * 1e4);
            } else if ((u -= wdj) < 0) {
                // Direct jumps are forward-only so that chains of
                // statically-resolvable transfers can never cycle: the
                // decoder follows them without consuming packets and
                // must always reach a packet-consuming terminator.
                blk.kind = BranchKind::kDirectJump;
                blk.target0 = local_block(
                    b + 1 + static_cast<std::uint32_t>(
                                rng.uniformInt(count - b - 1)));
            } else if ((u -= wdc) < 0) {
                // Direct-call edges form a DAG (callee id > caller id)
                // so statically-followed call chains always terminate;
                // recursion is expressed through indirect calls, which
                // consume TIP packets. The last function falls back to
                // a conditional.
                if (fidx + 1 < prog.functions_.size()) {
                    blk.kind = BranchKind::kDirectCall;
                    auto callee = static_cast<std::uint32_t>(
                        fidx + 1 +
                        rng.uniformInt(static_cast<std::uint64_t>(
                            prog.functions_.size() - fidx - 1)));
                    blk.target0 = prog.functions_[callee].entry_block;
                    blk.target1 = next;
                } else {
                    blk.kind = BranchKind::kConditional;
                    blk.target0 = local_block(static_cast<std::uint32_t>(
                        rng.uniformInt(count)));
                    blk.target1 = next;
                    blk.prob_taken_x1e4 = 5000;
                }
            } else if ((u -= wij) < 0) {
                blk.kind = BranchKind::kIndirectJump;
                blk.itable_begin = static_cast<std::uint32_t>(
                    prog.indirect_targets_.size());
                int entries = static_cast<int>(rng.uniformInt(3, 10));
                float acc = 0.f;
                std::vector<float> ws(static_cast<std::size_t>(entries));
                for (auto &w : ws) {
                    w = static_cast<float>(rng.uniform(0.1, 1.0));
                    acc += w;
                }
                float cum = 0.f;
                for (int e = 0; e < entries; ++e) {
                    cum += ws[static_cast<std::size_t>(e)] / acc;
                    // The last entry always jumps forward: a table
                    // whose targets all point backward could close a
                    // conditional subgraph with no escape edge and
                    // trap execution in it forever.
                    std::uint32_t tgt =
                        e == entries - 1
                            ? local_block(
                                  b + 1 +
                                  static_cast<std::uint32_t>(
                                      rng.uniformInt(count - b - 1)))
                            : local_block(static_cast<std::uint32_t>(
                                  rng.uniformInt(count)));
                    prog.indirect_targets_.push_back(IndirectTarget{
                        tgt, e == entries - 1 ? 1.0f : cum});
                }
                blk.itable_count = static_cast<std::uint32_t>(entries);
            } else if ((u -= wic) < 0) {
                blk.kind = BranchKind::kIndirectCall;
                blk.target1 = next;
                blk.itable_begin = static_cast<std::uint32_t>(
                    prog.indirect_targets_.size());
                int entries = static_cast<int>(
                    rng.uniformInt(4, is_main ? 24 : 12));
                float cum = 0.f;
                for (int e = 0; e < entries; ++e) {
                    cum += 1.0f / static_cast<float>(entries);
                    std::uint32_t callee = static_cast<std::uint32_t>(
                        1 + rng.uniformInt(
                                static_cast<std::uint64_t>(nfn - 1)));
                    prog.indirect_targets_.push_back(IndirectTarget{
                        prog.functions_[callee].entry_block,
                        e == entries - 1 ? 1.0f : cum});
                }
                blk.itable_count = static_cast<std::uint32_t>(entries);
            } else {
                // Early return from mid-function.
                blk.kind = BranchKind::kReturn;
            }
        }
    }

    // The main loop's entry must be a conditional: the final block (and
    // any unbalanced return) jumps back to it, so a static-jump entry
    // could form a packet-free cycle and a return-at-entry would
    // self-loop forever on an empty call stack.
    {
        BasicBlock &entry = prog.blocks_[prog.functions_[0].entry_block];
        if (entry.kind != BranchKind::kConditional) {
            const std::uint32_t first = prog.functions_[0].first_block;
            const std::uint32_t count = prog.functions_[0].num_blocks;
            entry.kind = BranchKind::kConditional;
            // Forward-only, like every main-loop conditional.
            entry.target0 =
                count > 1 ? first + 1 +
                                static_cast<std::uint32_t>(
                                    rng.uniformInt(count - 1))
                          : first;
            entry.target1 = count > 1 ? first + 1 : first;
            entry.prob_taken_x1e4 = 5000;
        }
    }

    prog.block_addresses_.reserve(prog.blocks_.size());
    for (const auto &blk : prog.blocks_)
        prog.block_addresses_.push_back(blk.address);
    EXIST_ASSERT(std::is_sorted(prog.block_addresses_.begin(),
                                prog.block_addresses_.end()),
                 "generated block addresses not monotonic");
    return prog;
}

std::uint32_t
ProgramBinary::blockAtAddress(std::uint64_t addr) const
{
    auto it = std::upper_bound(block_addresses_.begin(),
                               block_addresses_.end(), addr);
    if (it == block_addresses_.begin())
        return kNoBlock;
    auto idx = static_cast<std::uint32_t>(it - block_addresses_.begin() - 1);
    const BasicBlock &b = blocks_[idx];
    if (addr < b.address + b.size_bytes)
        return idx;
    return kNoBlock;
}

std::uint32_t
ProgramBinary::indirectEntry(const BasicBlock &b, double u) const
{
    EXIST_ASSERT(b.itable_count > 0, "indirect block without targets");
    const auto begin = indirect_targets_.begin() + b.itable_begin;
    const auto end = begin + b.itable_count;
    auto it = std::lower_bound(
        begin, end, static_cast<float>(u),
        [](const IndirectTarget &t, float v) {
            return t.cumulative_weight < v;
        });
    if (it == end)
        --it;
    return static_cast<std::uint32_t>(it - indirect_targets_.begin());
}

}  // namespace exist
