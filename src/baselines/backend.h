/**
 * @file
 * Common interface for intra-service tracing backends: the Oracle
 * (no tracing), the three state-of-the-practice baselines of Table 2
 * (StaSam, eBPF, NHT) and EXIST itself (src/core). A backend attaches
 * instrumentation to a node kernel, traces one target process for a
 * bounded period, and exposes its collected data and cost counters.
 */
#ifndef EXIST_BASELINES_BACKEND_H
#define EXIST_BASELINES_BACKEND_H

#include <cstdint>
#include <string>
#include <vector>

#include "os/kernel.h"
#include "util/types.h"

namespace exist {

/** What to trace and with which resources. */
struct SessionSpec {
    Process *target = nullptr;
    /** Tracing period (0.1s – 2s in the paper's deployment). */
    Cycles period = secondsToCycles(0.5);

    // Memory settings, in real MB (converted by kTraceByteScale
    // internally).
    std::uint64_t budget_mb = 500;       ///< node facility budget
    std::uint64_t min_core_buffer_mb = 4;
    std::uint64_t max_core_buffer_mb = 128;

    /** UMA core-sampling ratio for CPU-share pods; 0 = policy default
     *  (paper Fig. 19 sweeps this). */
    double core_sample_ratio = 0.0;

    /** Use ring buffers instead of compulsory STOP (ablation, §3.3). */
    bool ring_buffers = false;

    /** Emit CYC timing packets (IA32_RTIT_CTL.CYCEn). Off selects a
     *  control-flow-only tracing configuration: branch reconstruction
     *  and per-function attribution are unchanged, intra-segment
     *  timestamps coarsen to PSB/TSC granularity, and the trace-byte
     *  volume drops by roughly half on branch-dense workloads. */
    bool cyc_timing = true;

    /** Per-thread aux buffer size for the NHT backend (real MB);
     *  0 = NHT's default. Lets the Fig. 6 harness reproduce REPT-,
     *  Griffin- and JPortal-style buffer regimes. */
    std::uint64_t nht_aux_mb = 0;

    /** Ablation: EXIST with conventional per-switch control instead of
     *  the enable-once hooker (isolates §3.2's contribution). */
    bool exist_eager_control = false;

    /** REPT-style regime: keep only the per-thread ring's final
     *  content (post-mortem snapshot) instead of draining it on every
     *  fill/switch. Cheaper, but coverage collapses to the ring size. */
    bool nht_ring_only = false;
};

/** Cost and volume counters every backend reports. */
struct BackendStats {
    std::uint64_t trace_real_bytes = 0;    ///< space used (real bytes)
    std::uint64_t dropped_real_bytes = 0;  ///< lost to compulsory STOP
    std::uint64_t msr_writes = 0;          ///< RTIT WRMSR count
    std::uint64_t control_ops = 0;         ///< enable/disable/config seqs
    std::uint64_t samples = 0;             ///< StaSam samples
    std::uint64_t probe_hits = 0;          ///< eBPF tracepoint hits
    std::uint64_t pmis = 0;                ///< aux-buffer PMIs
    std::uint64_t traced_cores = 0;
};

/** One core's (or thread's) collected trace bytes, for decoding. */
struct CollectedTrace {
    CoreId core = kInvalidId;
    ThreadId thread = kInvalidId;  ///< set for per-thread schemes
    std::vector<std::uint8_t> bytes;
};

class TracerBackend
{
  public:
    virtual ~TracerBackend() = default;

    virtual std::string name() const = 0;

    /** Attach to the kernel and begin tracing per `spec`. The backend
     *  stops itself when the period expires. */
    virtual void start(Kernel &kernel, const SessionSpec &spec) = 0;

    /** Force-stop and detach (idempotent). */
    virtual void stop(Kernel &kernel) = 0;

    virtual bool active() const = 0;

    virtual BackendStats stats() const = 0;

    /** Collected trace data for decoding; empty for backends that do
     *  not produce chronological instruction traces. */
    virtual std::vector<CollectedTrace> collect() { return {}; }

    /** Whether this backend produces decodable instruction traces. */
    virtual bool producesInstructionTrace() const { return false; }
};

}  // namespace exist

#endif  // EXIST_BASELINES_BACKEND_H
