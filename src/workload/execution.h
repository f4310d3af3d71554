/**
 * @file
 * The execution engine: walks a ProgramBinary block by block, making
 * stochastic branch decisions, and reports each retired control transfer.
 * This is the event source both for virtual-time accounting (a block of
 * N instructions costs N * CPI cycles) and for the hardware tracer.
 */
#ifndef EXIST_WORKLOAD_EXECUTION_H
#define EXIST_WORKLOAD_EXECUTION_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "workload/branch.h"
#include "workload/program.h"

namespace exist {

/** Outcome of executing one basic block. */
struct StepResult {
    std::uint32_t insns;  ///< instructions retired by the block
    BranchRecord branch;  ///< the terminating control transfer
    /**
     * The thread enters the kernel after this block (syscall). This is
     * a runtime overlay driven by the profile's syscall rate rather
     * than a CFG property, so the rate is exact regardless of which
     * paths happen to be hot; structural kSyscall blocks (if any) also
     * set it.
     */
    bool syscall = false;
};

/**
 * Per-thread architectural execution state. Deterministic in
 * (program, seed); forked seeds give each thread an independent but
 * reproducible path through the CFG.
 *
 * Conditional and indirect outcomes depend on the program phase, a
 * sine of the instruction count. Most draws are decided without it:
 * the context keeps the phase at an anchor and bounds how far it can
 * have moved since, and only a draw whose outcome differs across that
 * band evaluates the sine (DESIGN.md §2, "Decision-exact phase
 * draws").
 */
class ExecutionContext
{
  public:
    ExecutionContext(const ProgramBinary *program, std::uint64_t seed)
        : prog_(program), rng_(seed), cur_(program->entryBlock())
    {
        double rate = program->profile().syscalls_per_kinsn;
        if (rate > 0.0) {
            syscall_mean_insns_ = 1000.0 / rate;
            insns_until_syscall_ =
                rng_.exponential(syscall_mean_insns_);
        }
        if (program->profile().phase_insns > 0.0 &&
            program->profile().phase_strength > 0.0) {
            phase_period_ = program->profile().phase_insns;
            half_strength_ = 0.5 * program->profile().phase_strength;
            phase_origin_ = rng_.uniform();  // runs start mid-phase
            phase_rate_ = kTwoPi / phase_period_;
        }
        exactPhase();
    }

    /** Execute the current block; advances to the branch target. */
    StepResult
    step()
    {
        const BasicBlock &b = prog_->block(cur_);
        BranchRecord rec;
        rec.source_block = cur_;
        rec.kind = b.kind;
        rec.taken = false;

        std::uint32_t target;
        switch (b.kind) {
          case BranchKind::kConditional: {
            const double p = static_cast<double>(b.prob_taken_x1e4) * 1e-4;
            const double u = rng_.uniform();
            const PhaseBand band = phaseBand();
            if (u < takenProb(p, band.lo))
                rec.taken = true;
            else if (u >= takenProb(p, band.hi))
                rec.taken = false;
            else
                rec.taken = u < takenProb(p, exactPhase());
            target = rec.taken ? b.target0 : b.target1;
            break;
          }
          case BranchKind::kDirectJump:
            target = b.target0;
            break;
          case BranchKind::kDirectCall:
            pushReturn(b.target1);
            target = b.target0;
            break;
          case BranchKind::kIndirectJump:
            target = indirectTarget(b);
            break;
          case BranchKind::kIndirectCall:
            pushReturn(b.target1);
            target = indirectTarget(b);
            break;
          case BranchKind::kReturn:
            if (depth_ == 0) {
                // Unbalanced return (the generator allows early returns
                // in the main loop): restart the main loop. The TIP
                // packet carries the real target, so decoding is exact.
                target = prog_->entryBlock();
            } else {
                top_ = top_ == 0 ? kMaxStackDepth - 1 : top_ - 1;
                --depth_;
                target = stack_[top_];
            }
            break;
          case BranchKind::kSyscall:
            target = b.target1;
            break;
          default:
            target = b.target0;
            break;
        }

        rec.target_block = target;
        cur_ = target;

        insns_total_ += b.insns;
        StepResult res{b.insns, rec, b.kind == BranchKind::kSyscall};
        if (syscall_mean_insns_ > 0.0) {
            insns_until_syscall_ -= static_cast<double>(b.insns);
            if (insns_until_syscall_ <= 0.0) {
                res.syscall = true;
                insns_until_syscall_ +=
                    rng_.exponential(syscall_mean_insns_);
            }
        }
        return res;
    }

    std::uint32_t currentBlock() const { return cur_; }
    const ProgramBinary &program() const { return *prog_; }
    std::size_t callDepth() const { return depth_; }

    /** How this context's phase-dependent draws were decided. */
    struct PhaseDrawStats {
        /** phase() evaluations: anchor refreshes plus the draws the
         *  anchor's band left open. */
        std::uint64_t sines = 0;
        /** Indirect draws whose band crossed the [0,1) wrap. */
        std::uint64_t wrap_straddles = 0;
    };
    const PhaseDrawStats &phaseDrawStats() const { return stats_; }

  private:
    static constexpr std::uint32_t kMaxStackDepth = 96;
    static constexpr double kTwoPi = 6.28318530717958647692;
    /** Instructions an anchor serves before it is refreshed. */
    static constexpr std::uint64_t kAnchorSpan = 16000;
    /** Covers sin()'s own error at both ends of the band. */
    static constexpr double kPhaseSlack = 1e-9;

    /** Current phase position in [-1, 1]. */
    double
    phase() const
    {
        if (phase_period_ <= 0.0)
            return 0.0;
        double t = static_cast<double>(insns_total_) / phase_period_ +
                   phase_origin_;
        return std::sin(kTwoPi * t);
    }

    /** phase(), kept as the anchor the bands of later draws grow from. */
    double
    exactPhase()
    {
        ++stats_.sines;
        anchor_phase_ = phase();
        anchor_insns_ = insns_total_;
        // The rounding of phase()'s argument grows with its magnitude
        // (a few ulps of 2*pi*t); bound it at the far end of the span.
        anchor_slack_ =
            kPhaseSlack +
            0x1p-48 * (phase_rate_ * static_cast<double>(
                                         anchor_insns_ + kAnchorSpan) +
                       kTwoPi);
        return anchor_phase_;
    }

    /** An interval that holds phase() at the current instruction
     *  count: |sin x - sin y| <= |x - y|, so the phase moves at most
     *  2*pi/phase_period per instruction from the anchor. */
    struct PhaseBand {
        double lo;
        double hi;
    };
    PhaseBand
    phaseBand()
    {
        if (insns_total_ - anchor_insns_ > kAnchorSpan)
            exactPhase();
        const double d =
            static_cast<double>(insns_total_ - anchor_insns_) *
                phase_rate_ +
            anchor_slack_;
        return {anchor_phase_ - d, anchor_phase_ + d};
    }

    /** A conditional branch's taken probability at phase `ph`;
     *  non-decreasing in `ph` under IEEE rounding. */
    double
    takenProb(double p, double ph) const
    {
        return std::clamp(p + half_strength_ * ph, 0.02, 0.98);
    }

    /** An indirect transfer's target. The draw is skewed by the phase
     *  and wrapped into [0,1), which shifts which table entries are
     *  favoured as phases change. The skewed draw and the entry it
     *  selects are non-decreasing in the phase, so when both ends of
     *  the band wrap alike and select one entry, so does the phase. */
    std::uint32_t
    indirectTarget(const BasicBlock &b)
    {
        const double u = rng_.uniform();
        const PhaseBand band = phaseBand();
        const double lo = u + half_strength_ * band.lo;
        const double hi = u + half_strength_ * band.hi;
        const double wrap = std::floor(lo);
        if (wrap == std::floor(hi)) {
            const std::uint32_t e = prog_->indirectEntry(b, lo - wrap);
            if (e == prog_->indirectEntry(b, hi - wrap))
                return prog_->indirectTargets()[e].block;
        } else {
            ++stats_.wrap_straddles;
        }
        double v = u + half_strength_ * exactPhase();
        v -= std::floor(v);
        return prog_->indirectTargets()[prog_->indirectEntry(b, v)].block;
    }

    /** Push onto the return stack; a full stack drops its oldest
     *  entry, which is the slot the new top overwrites. */
    void
    pushReturn(std::uint32_t block)
    {
        stack_[top_] = block;
        top_ = top_ + 1 == kMaxStackDepth ? 0 : top_ + 1;
        if (depth_ < kMaxStackDepth)
            ++depth_;
    }

    const ProgramBinary *prog_;
    Rng rng_;
    std::uint32_t cur_;
    /** Return addresses: a ring of kMaxStackDepth slots whose newest
     *  entry sits just below top_, holding the depth_ newest pushes.
     *  Kept on the heap, so the hot fields around it share lines. */
    std::vector<std::uint32_t> stack_ =
        std::vector<std::uint32_t>(kMaxStackDepth);
    std::uint32_t top_ = 0;
    std::uint32_t depth_ = 0;
    double syscall_mean_insns_ = 0.0;
    double insns_until_syscall_ = 0.0;
    std::uint64_t insns_total_ = 0;
    double phase_period_ = 0.0;
    double phase_origin_ = 0.0;
    double half_strength_ = 0.0;  ///< half the profile's phase_strength
    double phase_rate_ = 0.0;     ///< radians of phase per instruction
    double anchor_phase_ = 0.0;
    std::uint64_t anchor_insns_ = 0;
    double anchor_slack_ = 0.0;
    PhaseDrawStats stats_;
};

}  // namespace exist

#endif  // EXIST_WORKLOAD_EXECUTION_H
