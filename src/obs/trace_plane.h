/**
 * @file
 * Self-observability plane: always-on, lock-free internal span tracing.
 *
 * Every thread that emits an event owns a bounded SPSC ring of 32-byte
 * slots; the emit path performs four release stores of atomic slot
 * words and one release store of the write cursor and never
 * takes a lock, allocates, or blocks — it is safe from event-loop
 * callbacks, CommitLog actions, and decode hot loops (exist-analyzer
 * proves the no-blocking property, see
 * tools/analyzer/checks/event_block.py).  Collectors (flight-dump,
 * Chrome-trace export, tests) snapshot rings from the outside under the
 * kObs-ranked dump mutex; a concurrent writer can at worst overwrite
 * the oldest slots mid-copy, which the snapshot detects by re-reading
 * the cursor and trimming the possibly-torn prefix.
 *
 * Two clock domains share the same event format, discriminated by
 * Clock: kReal events carry steady-clock nanoseconds (decode, pool,
 * reconcile, WAL work); kSim events carry EventQueue virtual cycles
 * (fabric hops, agent batches, ingest) plus the emitting sim node id in
 * the low 16 bits of `arg`, so the exporter can group them per node.
 *
 * Correlation ids are minted with corrId() — a splitmix64 chain over
 * caller-supplied keys — so sim-side ids derive only from deterministic
 * quantities (seed, node, stream, seq) and are stable across runs of
 * the same seed.  The plane is write-only telemetry: nothing in
 * report-producing code may read it back (tools/analyzer rule
 * `obs-read-back`), so report bytes are identical with spans on or off.
 */
#ifndef EXIST_OBS_TRACE_PLANE_H
#define EXIST_OBS_TRACE_PLANE_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/types.h"

namespace exist::obs {

/** Event kinds, mapped onto Chrome trace-event phases at export time. */
enum class Kind : std::uint8_t {
    kBegin = 0,   ///< span open (Chrome "B"); paired with kEnd on same thread
    kEnd = 1,     ///< span close (Chrome "E")
    kInstant = 2, ///< point event (Chrome "i")
    kFlowBegin = 3, ///< cross-thread link source (Chrome "s")
    kFlowEnd = 4,   ///< cross-thread link sink (Chrome "f")
    kSimSpan = 5,   ///< complete sim-clock span: ts=start, arg carries dur
};

/** Clock domain an event's timestamp belongs to. */
enum class Clock : std::uint8_t {
    kReal = 0, ///< steady-clock nanoseconds since an arbitrary epoch
    kSim = 1,  ///< EventQueue virtual cycles (250 cycles/us)
};

/** Whether emission is recording (always-on unless EXIST_OBS=off). */
bool enabled();

/** Toggle recording at runtime (bench + determinism tests use this). */
void setEnabled(bool on);

/** Deterministic correlation id: splitmix64 chain over up to 3 keys. */
std::uint64_t corrId(std::uint64_t a, std::uint64_t b = 0,
                     std::uint64_t c = 0);

/** Steady-clock nanoseconds (the kReal timestamp source). */
std::uint64_t realNowNs();

/** Name the calling thread's ring (shows up as Perfetto thread name).
 *  Truncated to 31 bytes; safe to call repeatedly. */
void setThreadName(const char *name);

// -- emit API (kReal domain) -----------------------------------------
// `name` must point at static-storage text (string literals); only the
// pointer is recorded.  All emitters are no-ops when disabled.
void begin(const char *name, std::uint64_t corr);
void end(const char *name, std::uint64_t corr);
void instant(const char *name, std::uint64_t corr, std::uint64_t payload = 0);
void flowBegin(const char *name, std::uint64_t corr);
void flowEnd(const char *name, std::uint64_t corr);

// -- emit API (kSim domain) ------------------------------------------
// `now`/`start` are EventQueue virtual cycles; `node` is the sim node
// id (low 16 bits kept) used as the Perfetto process of the event.
void simInstant(const char *name, std::uint64_t corr, Cycles now,
                std::uint32_t node, std::uint32_t payload = 0);
void simSpan(const char *name, std::uint64_t corr, Cycles start, Cycles dur,
             std::uint32_t node);
void simFlowBegin(const char *name, std::uint64_t corr, Cycles now,
                  std::uint32_t node);
void simFlowEnd(const char *name, std::uint64_t corr, Cycles now,
                std::uint32_t node);

/** RAII real-clock span: records kBegin on construction, kEnd on
 *  destruction (same thread, so begin/end nest by construction). */
class Span {
  public:
    Span(const char *name, std::uint64_t corr) : name_(name), corr_(corr)
    {
        begin(name_, corr_);
    }
    ~Span() { end(name_, corr_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    std::uint64_t corr_;
};

#define EXIST_OBS_CONCAT2(a, b) a##b
#define EXIST_OBS_CONCAT(a, b) EXIST_OBS_CONCAT2(a, b)

/** Open a real-clock span for the rest of the enclosing scope. */
#define EXIST_SPAN(name, corr) \
    ::exist::obs::Span EXIST_OBS_CONCAT(exist_span_, __COUNTER__)((name), \
                                                                  (corr))

/** Record a real-clock point event. */
#define EXIST_INSTANT(name, corr) ::exist::obs::instant((name), (corr))

// -- collector / read side -------------------------------------------
// Reading is for telemetry surfaces only (existctl, flight dumps,
// tests, bench) — never for report-producing code paths.

/** One decoded event, as captured by snapshot(). */
struct EventView {
    std::uint64_t ts;   ///< ns (kReal) or cycles (kSim)
    const char *name;   ///< static-storage event name
    std::uint64_t corr; ///< correlation id
    Kind kind;
    Clock clock;
    std::uint64_t arg;  ///< payload; sim events keep node in low 16 bits
};

/** All surviving events of one thread's ring, oldest first. */
struct ThreadSnapshot {
    int ring;            ///< stable ring index (Perfetto tid)
    std::string name;    ///< thread name at snapshot time
    std::uint64_t total; ///< events ever recorded into this ring
    std::vector<EventView> events;
};

/** Copy every registered ring (kObs dump lock serializes collectors). */
std::vector<ThreadSnapshot> snapshot();

/** Total events recorded across all rings (approximate, monotonic). */
std::uint64_t eventsRecorded();

/** Number of per-thread rings ever registered. */
std::uint64_t threadsRegistered();

/** Events discarded because the thread-ring table was full. */
std::uint64_t threadsDropped();

}  // namespace exist::obs

#endif  // EXIST_OBS_TRACE_PLANE_H
