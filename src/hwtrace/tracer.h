/**
 * @file
 * The per-core hardware tracer: the piece of "silicon" each core owns.
 * Control flows through the MSR file (with its disable-before-configure
 * rule and per-operation costs); data flows from retired branches
 * through the packet writer into the ToPA output.
 *
 * PacketEn — whether packets are actually generated — follows the IPT
 * definition: TraceEn & !Stopped & context-match, where context-match
 * here means user-mode execution of the CR3-matched process (when the
 * CR3 filter is armed). Transitions of PacketEn emit TIP.PGE/TIP.PGD.
 */
#ifndef EXIST_HWTRACE_TRACER_H
#define EXIST_HWTRACE_TRACER_H

#include <cstdint>
#include <vector>

#include "hwtrace/msr.h"
#include "hwtrace/packet_writer.h"
#include "hwtrace/topa.h"
#include "util/types.h"
#include "workload/branch.h"
#include "workload/program.h"

namespace exist {

/** Software-visible tracer configuration (what the kernel programs). */
struct TracerConfig {
    bool branch_en = true;
    bool cyc_en = true;
    bool tsc_en = true;
    bool user = true;
    bool os = false;
    bool cr3_filter = false;
    std::uint64_t cr3_match = 0;
    std::vector<TopaEntry> topa;
    bool topa_ring = false;
    /**
     * When set, packets are written to this externally-owned buffer
     * (per-thread buffer schemes swap it at every context switch —
     * which is exactly the costly pattern EXIST eliminates); `topa` is
     * ignored. The buffer must already be configured.
     */
    TopaBuffer *external_output = nullptr;
    /**
     * Whether output regions are mapped cache-bypass (UC/WC). EXIST
     * does this (paper §3.3) so trace stores do not evict application
     * cache lines; the perf configuration uses write-back memory. The
     * OS cost model reads this to pick the trace-write CPI tax.
     */
    bool cache_bypass = false;
};

/** Outcome of a control operation, with the time it consumed. */
struct TracerControlResult {
    bool ok = true;
    Cycles cost = 0;
};

/** Per-core hardware tracer. */
class CoreTracer
{
  public:
    /** `cost_epoch`, if set, is bumped whenever packetEn() or
     *  cacheBypass() changes: the node kernel's CPI model reads both. */
    explicit CoreTracer(CoreId core, std::uint64_t *cost_epoch = nullptr)
        : core_(core), writer_(&topa_), cost_epoch_(cost_epoch)
    {
    }

    CoreId core() const { return core_; }

    /**
     * Program trace configuration. Must be called with tracing
     * disabled; the returned cost covers the MSR writes performed.
     */
    TracerControlResult configure(const TracerConfig &cfg);

    /** Set TraceEn. `ip`/`cr3` describe what the core is executing so
     *  PacketEn can be evaluated immediately. */
    TracerControlResult enable(Cycles now, std::uint64_t cr3,
                               std::uint64_t ip);

    /** Clear TraceEn, flushing a pending partial TNT byte. */
    TracerControlResult disable(Cycles now);

    bool enabled() const { return msrs_.traceEnabled(); }
    bool stopped() const { return msrs_.stopped(); }
    /** True while packets are being generated. */
    bool packetEn() const { return packet_en_; }

    /**
     * Data path: one retired branch from the thread currently running
     * on this core. `cr3` identifies the process; `user` is false while
     * executing in the kernel.
     */
    void onBranch(const BranchRecord &rec, const ProgramBinary &prog,
                  Cycles now, std::uint64_t cr3, bool user);

    /** Context-switch notification: the core now runs `cr3` at `ip`. */
    void onContextSwitch(std::uint64_t cr3, std::uint64_t ip, Cycles now);

    /** The running thread entered the kernel (syscall): with user-only
     *  tracing, packet generation stops until onUserResume. */
    void onSyscallEntry(Cycles now);

    /** A PTWRITE instruction retired with `value` (SS6.1 data flow). */
    void onPtWrite(std::uint64_t value, Cycles now);

    /** Kernel returned to user mode: process `cr3` resumes at `ip`. */
    void onUserResume(std::uint64_t cr3, std::uint64_t ip, Cycles now);

    /** PMIs raised by filled INT regions since the last call. */
    int takePmis();

    /** Whether the configured output is cache-bypass (see TracerConfig). */
    bool cacheBypass() const { return cache_bypass_; }

    MsrFile &msrs() { return msrs_; }
    const MsrFile &msrs() const { return msrs_; }
    TopaBuffer &output() { return out_ ? *out_ : topa_; }
    const TopaBuffer &output() const { return out_ ? *out_ : topa_; }
    const PacketStats &packetStats() const { return writer_.stats(); }

    /** Real bytes (model bytes x kTraceByteScale) dropped so far. */
    std::uint64_t realBytesDropped() const
    {
        return output().bytesDropped() * kTraceByteScale;
    }

  private:
    void updatePacketEn(std::uint64_t cr3, bool user, std::uint64_t ip,
                        Cycles now);
    void setPacketEn(bool on);
    bool contextMatch(std::uint64_t cr3, bool user) const;
    void collectWriterEvents();

    CoreId core_;
    MsrFile msrs_;
    TopaBuffer topa_;
    TopaBuffer *out_ = nullptr;  ///< external output, if any
    PacketWriter writer_;
    bool packet_en_ = false;
    int pending_pmis_ = 0;
    bool cache_bypass_ = false;
    std::uint64_t *cost_epoch_;
};

}  // namespace exist

#endif  // EXIST_HWTRACE_TRACER_H
