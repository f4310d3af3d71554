/**
 * @file
 * Exactness of the execution engine's phase draws. ExecutionContext
 * decides most conditional and indirect outcomes from a band that
 * holds the program phase, and evaluates the phase sine only when the
 * band leaves an outcome open (DESIGN.md §2, "Programs have phases").
 * These tests step it against a reference stepper that evaluates the
 * sine on every conditional and indirect branch, and require the same
 * transfer on every step.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "workload/app_profile.h"
#include "workload/execution.h"
#include "workload/program.h"

namespace exist {
namespace {

/** The phase draws by their defining formula: phase() on every
 *  conditional and indirect branch. Everything else mirrors
 *  ExecutionContext::step, so the two consume one RNG stream alike. */
class ReferenceStepper
{
  public:
    ReferenceStepper(const ProgramBinary *program, std::uint64_t seed)
        : prog_(program), rng_(seed), cur_(program->entryBlock())
    {
        const AppProfile &profile = program->profile();
        if (profile.syscalls_per_kinsn > 0.0) {
            syscall_mean_insns_ = 1000.0 / profile.syscalls_per_kinsn;
            insns_until_syscall_ = rng_.exponential(syscall_mean_insns_);
        }
        if (profile.phase_insns > 0.0 && profile.phase_strength > 0.0) {
            phase_period_ = profile.phase_insns;
            phase_strength_ = profile.phase_strength;
            phase_origin_ = rng_.uniform();
        }
    }

    StepResult
    step()
    {
        const BasicBlock &b = prog_->block(cur_);
        BranchRecord rec{cur_, kNoBlock, b.kind, false};
        std::uint32_t target = b.target0;
        switch (b.kind) {
          case BranchKind::kConditional: {
            double p = static_cast<double>(b.prob_taken_x1e4) * 1e-4;
            p = std::clamp(p + 0.5 * phase_strength_ * phase(), 0.02,
                           0.98);
            rec.taken = rng_.uniform() < p;
            target = rec.taken ? b.target0 : b.target1;
            break;
          }
          case BranchKind::kDirectCall:
            pushReturn(b.target1);
            break;
          case BranchKind::kIndirectJump:
            target = indirect(b);
            break;
          case BranchKind::kIndirectCall:
            pushReturn(b.target1);
            target = indirect(b);
            break;
          case BranchKind::kReturn:
            if (stack_.empty()) {
                target = prog_->entryBlock();
            } else {
                target = stack_.back();
                stack_.pop_back();
            }
            break;
          case BranchKind::kSyscall:
            target = b.target1;
            break;
          default:
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

  private:
    double
    phase() const
    {
        if (phase_period_ <= 0.0)
            return 0.0;
        double t = static_cast<double>(insns_total_) / phase_period_ +
                   phase_origin_;
        return std::sin(6.28318530717958647692 * t);
    }

    std::uint32_t
    indirect(const BasicBlock &b)
    {
        double u = rng_.uniform() + 0.5 * phase_strength_ * phase();
        u -= std::floor(u);
        return prog_->indirectTargets()[prog_->indirectEntry(b, u)].block;
    }

    void
    pushReturn(std::uint32_t block)
    {
        if (stack_.size() >= 96)
            stack_.erase(stack_.begin());
        stack_.push_back(block);
    }

    const ProgramBinary *prog_;
    Rng rng_;
    std::uint32_t cur_;
    std::vector<std::uint32_t> stack_;
    double syscall_mean_insns_ = 0.0;
    double insns_until_syscall_ = 0.0;
    std::uint64_t insns_total_ = 0;
    double phase_period_ = 0.0;
    double phase_strength_ = 0.0;
    double phase_origin_ = 0.0;
};

/** Phase-dependent branches stepped and how ExecutionContext decided
 *  them. */
struct Stepped {
    std::uint64_t conditional = 0;
    std::uint64_t indirect = 0;
    ExecutionContext::PhaseDrawStats stats;
};

/** Step both for `blocks` blocks; the first differing step fails the
 *  test. */
Stepped
stepBoth(const ProgramBinary &prog, std::uint64_t seed, int blocks)
{
    ExecutionContext exec(&prog, seed);
    ReferenceStepper ref(&prog, seed);
    Stepped out;
    for (int i = 0; i < blocks; ++i) {
        const StepResult got = exec.step();
        const StepResult want = ref.step();
        if (got.branch.source_block != want.branch.source_block ||
            got.branch.target_block != want.branch.target_block ||
            got.branch.taken != want.branch.taken ||
            got.syscall != want.syscall || got.insns != want.insns) {
            ADD_FAILURE() << prog.name() << " seed " << seed
                          << ": step " << i << " differs: block "
                          << got.branch.source_block << " -> "
                          << got.branch.target_block << " taken "
                          << got.branch.taken << " syscall "
                          << got.syscall << ", reference block "
                          << want.branch.source_block << " -> "
                          << want.branch.target_block << " taken "
                          << want.branch.taken << " syscall "
                          << want.syscall;
            break;
        }
        switch (got.branch.kind) {
          case BranchKind::kConditional:
            ++out.conditional;
            break;
          case BranchKind::kIndirectJump:
          case BranchKind::kIndirectCall:
            ++out.indirect;
            break;
          default:
            break;
        }
    }
    out.stats = exec.phaseDrawStats();
    return out;
}

constexpr int kBlocks = 1'000'000;
constexpr std::uint64_t kSeeds[] = {1, 0x5eed, 0xfeedface12345ULL};

class PhaseDrawExactness : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PhaseDrawExactness, MatchesPerBranchSine)
{
    for (std::uint64_t seed : kSeeds) {
        ProgramBinary prog =
            ProgramBinary::generate(AppCatalog::find(GetParam()), seed);
        Stepped s = stepBoth(prog, seed ^ 0x9e37, kBlocks);
        if (HasFailure())
            return;
        // The band decides most draws: the sine runs at most once per
        // anchor span plus a small share of draws.
        EXPECT_LT(s.stats.sines, (s.conditional + s.indirect) / 4 + 1)
            << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(AllCatalogApps, PhaseDrawExactness,
                         ::testing::ValuesIn(AppCatalog::allNames()));

TEST(PhaseDrawAdversarial, ShortStrongPhasesFallBackToTheSine)
{
    // A phase of 64 instructions at strength 0.98: one block past its
    // anchor, a band spans the whole [-1, 1], so nearly every draw
    // needs the sine.
    AppProfile profile = AppCatalog::find("Search1");
    profile.phase_insns = 64;
    profile.phase_strength = 0.98;
    for (std::uint64_t seed : kSeeds) {
        ProgramBinary prog = ProgramBinary::generate(profile, seed);
        Stepped s = stepBoth(prog, seed, kBlocks);
        if (HasFailure())
            return;
        EXPECT_GT(s.stats.sines, (s.conditional + s.indirect) / 2)
            << "seed " << seed;
    }
}

TEST(PhaseDrawAdversarial, IndirectBandsStraddleTheWrap)
{
    // Indirect-heavy code at strength 0.9 with phases short enough
    // that a band is a sizeable fraction of [0,1) but usually narrower
    // than it: many bands cross the wrap without covering it.
    AppProfile profile = AppCatalog::find("Search1");
    profile.phase_insns = 20'000;
    profile.phase_strength = 0.9;
    profile.w_ijump = 0.15;
    profile.w_icall = 0.15;
    for (std::uint64_t seed : kSeeds) {
        ProgramBinary prog = ProgramBinary::generate(profile, seed);
        Stepped s = stepBoth(prog, seed, kBlocks);
        if (HasFailure())
            return;
        EXPECT_GT(s.stats.wrap_straddles, s.indirect / 100)
            << "seed " << seed;
        EXPECT_LT(s.stats.wrap_straddles, s.indirect / 2)
            << "seed " << seed;
    }
}

}  // namespace
}  // namespace exist
