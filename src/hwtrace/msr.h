/**
 * @file
 * Model-specific registers controlling the per-core hardware tracer,
 * with the architectural constraint that makes EXIST's control problem
 * interesting: trace configuration may only change while tracing is
 * disabled, so every reconfiguration is a disable/modify/enable sequence
 * (paper §2.3). Each WRMSR/RDMSR has a time cost that the calling layer
 * charges to whoever performed it.
 */
#ifndef EXIST_HWTRACE_MSR_H
#define EXIST_HWTRACE_MSR_H

#include <cstdint>

#include "util/types.h"

namespace exist {

/** IA32_RTIT_CTL bit positions (subset used by EXIST, per SDM). */
namespace rtit_ctl {
inline constexpr std::uint64_t kTraceEn = 1ull << 0;
inline constexpr std::uint64_t kCycEn = 1ull << 1;
inline constexpr std::uint64_t kOs = 1ull << 2;
inline constexpr std::uint64_t kUser = 1ull << 3;
inline constexpr std::uint64_t kCr3Filter = 1ull << 7;
inline constexpr std::uint64_t kToPA = 1ull << 8;
inline constexpr std::uint64_t kTscEn = 1ull << 10;
inline constexpr std::uint64_t kBranchEn = 1ull << 13;
}  // namespace rtit_ctl

/** IA32_RTIT_STATUS bits. */
namespace rtit_status {
inline constexpr std::uint64_t kStopped = 1ull << 1;
inline constexpr std::uint64_t kError = 1ull << 4;
}  // namespace rtit_status

/** The RTIT MSRs modelled per core. */
enum class RtitMsr : std::uint8_t {
    kCtl,
    kStatus,
    kCr3Match,
    kOutputBase,
    kOutputMaskPtrs,
};

/** Result of an MSR access: the new value semantics plus its cost. */
struct MsrAccessResult {
    bool ok;       ///< false = #GP (illegal while TraceEn=1)
    Cycles cost;   ///< time consumed by the instruction + serialization
};

/**
 * Per-core RTIT MSR file. Tracks operation counts so the harness can
 * report O(#switch) vs O(#core) control-operation totals.
 */
class MsrFile
{
  public:
    /** Cost of one WRMSR to an RTIT register (includes serialization). */
    static constexpr Cycles kWrmsrCost = usToCycles(0.9);
    /** Cost of one RDMSR. */
    static constexpr Cycles kRdmsrCost = usToCycles(0.3);

    /** Write an MSR. Enforces the config-while-disabled rule. */
    MsrAccessResult write(RtitMsr msr, std::uint64_t value);

    /** Read an MSR value (always legal). */
    std::uint64_t read(RtitMsr msr) const;

    /** Read including the access cost, for callers that charge time. */
    MsrAccessResult readCosted(RtitMsr msr, std::uint64_t &value) const;

    bool traceEnabled() const { return ctl_ & rtit_ctl::kTraceEn; }
    bool cr3FilterEnabled() const { return ctl_ & rtit_ctl::kCr3Filter; }
    bool branchEnabled() const { return ctl_ & rtit_ctl::kBranchEn; }
    bool userTracing() const { return ctl_ & rtit_ctl::kUser; }
    bool osTracing() const { return ctl_ & rtit_ctl::kOs; }
    std::uint64_t cr3Match() const { return cr3_match_; }

    /** Status register manipulation used by the tracer itself. */
    void setStopped(bool stopped);
    bool stopped() const { return status_ & rtit_status::kStopped; }

    std::uint64_t writeCount() const { return write_count_; }

  private:
    std::uint64_t ctl_ = 0;
    std::uint64_t status_ = 0;
    std::uint64_t cr3_match_ = 0;
    std::uint64_t output_base_ = 0;
    std::uint64_t output_mask_ = 0;
    std::uint64_t write_count_ = 0;
};

}  // namespace exist

#endif  // EXIST_HWTRACE_MSR_H
