/**
 * @file
 * Behaviour synthesis (paper §3.1): "collected instruction traces are
 * automatically synthesized into human-readable application behaviors
 * for on-call engineers and developers". Turns decoded per-core traces
 * plus the switch-log sidecar into a text report: hottest functions,
 * category breakdown, per-thread activity, and blocking suspects (the
 * §5.4 diagnosis signal).
 */
#ifndef EXIST_ANALYSIS_BEHAVIOR_REPORT_H
#define EXIST_ANALYSIS_BEHAVIOR_REPORT_H

#include <string>
#include <utility>
#include <vector>

#include "analysis/attribution.h"
#include "decode/flow_reconstructor.h"
#include "os/kernel.h"
#include "workload/program.h"

namespace exist {

class BehaviorReport
{
  public:
    /** Synthesize a report from decoded per-core traces. */
    static std::string
    synthesize(const ProgramBinary &binary,
               const std::vector<std::pair<CoreId, DecodedTrace>> &cores,
               const std::vector<SwitchRecord> &sidecar);
};

}  // namespace exist

#endif  // EXIST_ANALYSIS_BEHAVIOR_REPORT_H
