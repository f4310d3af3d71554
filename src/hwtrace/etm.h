/**
 * @file
 * An ARM CoreSight ETM-style trace format — the paper's §6.2 claim
 * ("the efficient abstraction designs can be easily extended to other
 * platforms") made concrete. The wire format differs from the
 * IPT-style one everywhere it matters: conditional outcomes travel as
 * Atom packets (runs of E/N atoms), indirect targets as Address
 * packets with their own compression scheme, filter transitions as
 * TraceOn/TraceOff, and synchronization as A-Sync byte runs.
 *
 * Portability is demonstrated the way production stacks do it
 * (OpenCSD/perfetto-style): a transcoder lowers the ETM stream into
 * the common packet vocabulary, after which the whole decode pipeline
 * — flow reconstruction, attribution, behaviour reports — works
 * unchanged.
 */
#ifndef EXIST_HWTRACE_ETM_H
#define EXIST_HWTRACE_ETM_H

#include <cstdint>
#include <vector>

#include "hwtrace/packet.h"
#include "util/types.h"

namespace exist::etm {

/** ETM-style packet headers. */
enum class EtmOp : std::uint8_t {
    kPad = 0x00,
    kAsyncTerm = 0x80,     ///< terminates an A-Sync run of kPad bytes
    kTraceInfo = 0x01,     ///< 1 payload byte (trace parameters)
    kAtom = 0xa0,          ///< 0xa0|count(1..8), then 1 bit-payload byte
    kAddrShort = 0xb1,     ///< 2-byte address delta (low bytes)
    kAddrMid = 0xb2,       ///< 4-byte address delta
    kAddrLong = 0xb3,      ///< full 8-byte address
    kContext = 0xc0,       ///< 4-byte context id (like PIP)
    kTraceOn = 0xd0,       ///< tracing (re)starts; address follows
    kTraceOff = 0xd1,      ///< tracing stops
    kTimestamp = 0xe0,     ///< 7-byte timestamp
    kCycleCount = 0xe1,    ///< varint cycle delta
};

/** Number of pad bytes in an A-Sync sequence (plus the terminator). */
inline constexpr int kAsyncPadBytes = 11;
/** Emit an A-Sync + timestamp roughly every this many bytes. */
inline constexpr std::uint64_t kSyncPeriodBytes = 4096;

/**
 * Encoder producing the ETM-style byte stream. Mirrors the IPT-style
 * writer's call surface (atom per conditional, address per indirect,
 * on/off at filter boundaries) so a CoreSight-flavoured tracer could
 * slot into the same kernel integration.
 */
class EtmPacketWriter
{
  public:
    explicit EtmPacketWriter(std::vector<std::uint8_t> *out)
        : out_(out)
    {
    }

    void reset(Cycles now);

    /** Conditional-branch outcome (an E or N atom). */
    void atom(bool taken, Cycles now);
    /** Indirect transfer target. */
    void address(std::uint64_t ip, Cycles now);
    /** Filter entry at `ip` (TraceOn). */
    void traceOn(std::uint64_t ip, Cycles now);
    /** Filter exit (TraceOff). */
    void traceOff(Cycles now);
    /** Context (address-space) change. */
    void context(std::uint32_t ctx);
    /** Flush a partial atom group (at disable / before sync). */
    void flushAtoms(Cycles now);

    std::uint64_t atomPackets() const { return atom_packets_; }

  private:
    void emit(const std::uint8_t *bytes, std::size_t n);
    void maybeSync(Cycles now);
    void cycleCount(Cycles now);
    void emitAddress(EtmOp on_or_plain, std::uint64_t ip);

    std::vector<std::uint8_t> *out_;
    std::uint8_t atom_bits_ = 0;
    int atom_count_ = 0;
    std::uint64_t last_addr_ = 0;
    std::uint64_t current_ip_ = 0;
    Cycles last_cyc_ = 0;
    std::uint64_t bytes_since_sync_ = 0;
    bool in_sync_ = false;
    std::uint64_t atom_packets_ = 0;
};

/**
 * Lower an ETM-style stream into the common packet vocabulary (the
 * IPT-style byte format the shared decode pipeline consumes). Returns
 * the transcoded bytes; `errors` counts malformed inputs skipped.
 */
std::vector<std::uint8_t>
transcodeToCommon(const std::vector<std::uint8_t> &etm_bytes,
                  std::size_t *errors = nullptr);

}  // namespace exist::etm

#endif  // EXIST_HWTRACE_ETM_H
