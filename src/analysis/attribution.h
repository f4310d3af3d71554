/**
 * @file
 * Thread attribution of per-core traces — the consumer of EXIST's
 * 24-byte five-tuple context-switch sidecar (paper §3.3): "to reason
 * about the dependency across threads for multi-threaded applications
 * with per-core settings, the hook injected in the sched_switch
 * tracepoint records [Timestamp, CPUID, ProcessID, ThreadID,
 * Operation]".
 *
 * A per-core packet buffer interleaves execution segments of every
 * thread of the filtered process that ran there. Decoded segments carry
 * TSC/CYC timestamps; the attributor intersects them with the sidecar's
 * per-core occupancy timeline to say *which thread* each segment
 * belongs to, yielding per-thread control flows from per-core buffers.
 */
#ifndef EXIST_ANALYSIS_ATTRIBUTION_H
#define EXIST_ANALYSIS_ATTRIBUTION_H

#include <cstdint>
#include <map>
#include <vector>

#include "decode/flow_reconstructor.h"
#include "os/kernel.h"
#include "util/types.h"

namespace exist {

/** One interval during which a thread occupied a core. */
struct OccupancySlice {
    Cycles start = 0;
    Cycles end = 0;  ///< kOpenEnd while the thread is still on-core
    ThreadId tid = kInvalidId;

    static constexpr Cycles kOpenEnd = ~Cycles{0};
};

/** Per-thread aggregation of attributed decode results. */
struct ThreadTrace {
    ThreadId tid = kInvalidId;
    std::uint64_t segments = 0;
    std::uint64_t branches = 0;
    /** Sum of attributed segment spans (PGE..PGD wall time; may
     *  include in-segment syscall gaps the filter paused over). */
    Cycles active_cycles = 0;
    /** Longest gap between this thread's consecutive segments on the
     *  same core (blocking time; the §5.4 diagnosis signal). */
    Cycles longest_gap = 0;
};

class ThreadAttributor
{
  public:
    /** Build per-core occupancy timelines from the sidecar log (the
     *  log as EXIST captures it: already filtered to the target). */
    explicit ThreadAttributor(const std::vector<SwitchRecord> &log);

    /** Thread occupying `core` at time `t`; kInvalidId if none. */
    ThreadId threadAt(CoreId core, Cycles t) const;

    /** Attribute a decoded core trace to threads. Segments that match
     *  no slice (e.g. decode-time skew beyond tolerance) land under
     *  kInvalidId. */
    std::map<ThreadId, ThreadTrace>
    attribute(CoreId core, const DecodedTrace &trace) const;

    /** Merge per-core attributions into one per-thread view. */
    static std::map<ThreadId, ThreadTrace>
    merge(const std::vector<std::map<ThreadId, ThreadTrace>> &parts);

    const std::vector<OccupancySlice> &timeline(CoreId core) const;

  private:
    std::map<CoreId, std::vector<OccupancySlice>> timelines_;
};

}  // namespace exist

#endif  // EXIST_ANALYSIS_ATTRIBUTION_H
