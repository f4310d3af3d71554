#include "hwtrace/msr.h"

#include "util/logging.h"

namespace exist {

MsrAccessResult
MsrFile::write(RtitMsr msr, std::uint64_t value)
{
    ++write_count_;

    switch (msr) {
      case RtitMsr::kCtl: {
        // Changing anything but TraceEn while TraceEn=1 is illegal:
        // this is the architectural constraint that forces the
        // disable/modify/enable sequence (SDM 33.2.7.1).
        if (traceEnabled() && (value & ~rtit_ctl::kTraceEn) !=
                                  (ctl_ & ~rtit_ctl::kTraceEn)) {
            return {false, kWrmsrCost};
        }
        ctl_ = value;
        if (traceEnabled())
            status_ &= ~rtit_status::kStopped;
        return {true, kWrmsrCost};
      }
      case RtitMsr::kStatus:
        status_ = value;
        return {true, kWrmsrCost};
      case RtitMsr::kCr3Match:
        if (traceEnabled())
            return {false, kWrmsrCost};
        cr3_match_ = value;
        return {true, kWrmsrCost};
      case RtitMsr::kOutputBase:
        if (traceEnabled())
            return {false, kWrmsrCost};
        output_base_ = value;
        return {true, kWrmsrCost};
      case RtitMsr::kOutputMaskPtrs:
        if (traceEnabled())
            return {false, kWrmsrCost};
        output_mask_ = value;
        return {true, kWrmsrCost};
    }
    EXIST_PANIC("unknown RTIT MSR %d", static_cast<int>(msr));
}

std::uint64_t
MsrFile::read(RtitMsr msr) const
{
    switch (msr) {
      case RtitMsr::kCtl: return ctl_;
      case RtitMsr::kStatus: return status_;
      case RtitMsr::kCr3Match: return cr3_match_;
      case RtitMsr::kOutputBase: return output_base_;
      case RtitMsr::kOutputMaskPtrs: return output_mask_;
    }
    EXIST_PANIC("unknown RTIT MSR %d", static_cast<int>(msr));
}

MsrAccessResult
MsrFile::readCosted(RtitMsr msr, std::uint64_t &value) const
{
    value = read(msr);
    return {true, kRdmsrCost};
}

void
MsrFile::setStopped(bool stopped)
{
    if (stopped)
        status_ |= rtit_status::kStopped;
    else
        status_ &= ~rtit_status::kStopped;
}

}  // namespace exist
