#include "obs/trace_plane.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "obs/flight_recorder.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace exist::obs {
namespace {

constexpr std::size_t kRingCapacity = 8192;  // slots per thread (256 KiB)
constexpr std::size_t kRingMask = kRingCapacity - 1;
constexpr int kMaxRings = 256;
constexpr int kNameWords = 4;  // 32-byte thread name

static_assert((kRingCapacity & kRingMask) == 0, "capacity power of two");

/** One 32-byte event, stored as four atomic words so a
 *  concurrent snapshot copy is TSan-clean; torn reads of slots being
 *  overwritten (or about to be: the slot of seq end - kRingCapacity
 *  while the writer fills it for seq end) are trimmed by the cursor
 *  re-check in snapshot(). */
struct Slot {
    std::atomic<std::uint64_t> w[4];
};

struct Ring {
    std::atomic<std::uint64_t> write_pos{0};
    std::atomic<std::uint64_t> name_words[kNameWords] = {};
    std::atomic<bool> retired{false};
    int index = -1;
    Slot slots[kRingCapacity];
};

std::atomic<int> g_enabled{1};
std::atomic<Ring *> g_rings[kMaxRings] = {};
std::atomic<int> g_ring_count{0};
std::atomic<std::uint64_t> g_threads_dropped{0};

// Serializes collectors (snapshot/export/dump) against each other; the
// emit path never touches it — that is the no-blocking property the
// analyzer proves for event-loop reachability.
Mutex g_dump_mu{lockorder::LockRank::kObs, "obs.dump"};

thread_local Ring *t_ring = nullptr;
thread_local bool t_dropped = false;

void
storeName(Ring *r, const char *name)
{
    char buf[kNameWords * 8] = {};
    std::strncpy(buf, name ? name : "", sizeof(buf) - 1);
    for (int i = 0; i < kNameWords; ++i) {
        std::uint64_t w = 0;
        std::memcpy(&w, buf + i * 8, 8);
        r->name_words[i].store(w, std::memory_order_relaxed);
    }
}

std::string
loadName(const Ring *r)
{
    char buf[kNameWords * 8 + 1] = {};
    for (int i = 0; i < kNameWords; ++i) {
        std::uint64_t w = r->name_words[i].load(std::memory_order_relaxed);
        std::memcpy(buf + i * 8, &w, 8);
    }
    return std::string(buf);
}

Ring *
claimRetiredRing()
{
    int n = g_ring_count.load(std::memory_order_acquire);
    if (n > kMaxRings)
        n = kMaxRings;
    for (int i = 0; i < n; ++i) {
        Ring *r = g_rings[i].load(std::memory_order_acquire);
        if (r && r->retired.load(std::memory_order_relaxed) &&
            r->retired.exchange(false, std::memory_order_acq_rel)) {
            return r;
        }
    }
    return nullptr;
}

Ring *
registerThisThread()
{
    if (t_dropped)
        return nullptr;
    Ring *r = claimRetiredRing();
    if (!r) {
        int idx = g_ring_count.fetch_add(1, std::memory_order_acq_rel);
        if (idx >= kMaxRings) {
            // Table full and nothing retired: this thread stays silent.
            g_threads_dropped.fetch_add(1, std::memory_order_relaxed);
            t_dropped = true;
            return nullptr;
        }
        r = new Ring;  // never freed: rings outlive their threads so
                       // flight dumps can still show a dead thread's
                       // tail (bounded by kMaxRings; reclaimed on exit)
        r->index = idx;
        storeName(r, "thread");
        g_rings[idx].store(r, std::memory_order_release);
    }
    t_ring = r;
    return r;
}

/** Retire the calling thread's ring on thread exit so a later thread
 *  (e.g. the next test's pool worker) reuses it instead of growing the
 *  table without bound. Contents are kept: they are process history. */
struct ThreadRetirer {
    ~ThreadRetirer()
    {
        if (t_ring) {
            t_ring->retired.store(true, std::memory_order_release);
            t_ring = nullptr;
        }
    }
};
thread_local ThreadRetirer t_retirer;

constexpr std::uint64_t kArgMask = (std::uint64_t{1} << 48) - 1;

std::uint64_t
pack(Kind kind, Clock clock, std::uint64_t arg)
{
    return (static_cast<std::uint64_t>(kind) << 56) |
           (static_cast<std::uint64_t>(clock) << 48) | (arg & kArgMask);
}

void
emitEvent(std::uint64_t ts, const char *name, std::uint64_t corr, Kind kind,
          Clock clock, std::uint64_t arg)
{
    if (!g_enabled.load(std::memory_order_relaxed))
        return;
    Ring *r = t_ring;
    if (!r) {
        (void)t_retirer;  // force the retirer's construction
        r = registerThisThread();
        if (!r)
            return;
    }
    std::uint64_t seq = r->write_pos.load(std::memory_order_relaxed);
    Slot &s = r->slots[seq & kRingMask];
    // Release stores order the cursor store that published seq before
    // each slot word: a collector whose acquire load reads any of them
    // then reads a cursor of at least seq (see snapshot()). They do
    // the work of a release fence, which -fsanitize=thread rejects.
    s.w[0].store(ts, std::memory_order_release);
    s.w[1].store(reinterpret_cast<std::uint64_t>(name),
                 std::memory_order_release);
    s.w[2].store(corr, std::memory_order_release);
    s.w[3].store(pack(kind, clock, arg), std::memory_order_release);
    r->write_pos.store(seq + 1, std::memory_order_release);
}

std::uint64_t
simArg(std::uint32_t node, std::uint32_t payload)
{
    return (static_cast<std::uint64_t>(payload) << 16) | (node & 0xffff);
}

/** Applies EXIST_OBS=off|0 before main() (single-threaded), and hooks
 *  the flight recorder into fatal/panic termination. */
struct PlaneInit {
    PlaneInit()
    {
        const char *env = std::getenv("EXIST_OBS");
        if (env && (std::strcmp(env, "off") == 0 ||
                    std::strcmp(env, "0") == 0)) {
            g_enabled.store(0, std::memory_order_relaxed);
        }
        setCrashDumpHook(+[](std::FILE *out) { flightDumpTo(out, 64); });
    }
};
PlaneInit g_plane_init;

}  // namespace

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed) != 0;
}

void
setEnabled(bool on)
{
    g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::uint64_t
corrId(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    std::uint64_t state = 0x0b5e3f1d2c4a6987ULL ^ a;
    std::uint64_t r = splitmix64(state);
    state = r ^ b;
    r = splitmix64(state);
    state = r ^ c;
    return splitmix64(state);
}

std::uint64_t
realNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setThreadName(const char *name)
{
    Ring *r = t_ring;
    if (!r) {
        (void)t_retirer;
        r = registerThisThread();
        if (!r)
            return;
    }
    storeName(r, name);
}

void
begin(const char *name, std::uint64_t corr)
{
    emitEvent(realNowNs(), name, corr, Kind::kBegin, Clock::kReal, 0);
}

void
end(const char *name, std::uint64_t corr)
{
    emitEvent(realNowNs(), name, corr, Kind::kEnd, Clock::kReal, 0);
}

void
instant(const char *name, std::uint64_t corr, std::uint64_t payload)
{
    emitEvent(realNowNs(), name, corr, Kind::kInstant, Clock::kReal,
              payload);
}

void
flowBegin(const char *name, std::uint64_t corr)
{
    emitEvent(realNowNs(), name, corr, Kind::kFlowBegin, Clock::kReal, 0);
}

void
flowEnd(const char *name, std::uint64_t corr)
{
    emitEvent(realNowNs(), name, corr, Kind::kFlowEnd, Clock::kReal, 0);
}

void
simInstant(const char *name, std::uint64_t corr, Cycles now,
           std::uint32_t node, std::uint32_t payload)
{
    emitEvent(now, name, corr, Kind::kInstant, Clock::kSim,
              simArg(node, payload));
}

void
simSpan(const char *name, std::uint64_t corr, Cycles start, Cycles dur,
        std::uint32_t node)
{
    std::uint32_t dur32 = dur > 0xffffffffULL
                              ? 0xffffffffU
                              : static_cast<std::uint32_t>(dur);
    emitEvent(start, name, corr, Kind::kSimSpan, Clock::kSim,
              simArg(node, dur32));
}

void
simFlowBegin(const char *name, std::uint64_t corr, Cycles now,
             std::uint32_t node)
{
    emitEvent(now, name, corr, Kind::kFlowBegin, Clock::kSim,
              simArg(node, 0));
}

void
simFlowEnd(const char *name, std::uint64_t corr, Cycles now,
           std::uint32_t node)
{
    emitEvent(now, name, corr, Kind::kFlowEnd, Clock::kSim,
              simArg(node, 0));
}

std::vector<ThreadSnapshot>
snapshot()
{
    MutexLock dump_lock(g_dump_mu);
    std::vector<ThreadSnapshot> out;
    int n = g_ring_count.load(std::memory_order_acquire);
    if (n > kMaxRings)
        n = kMaxRings;
    for (int i = 0; i < n; ++i) {
        Ring *r = g_rings[i].load(std::memory_order_acquire);
        if (!r)
            continue;
        ThreadSnapshot ts;
        ts.ring = r->index;
        ts.name = loadName(r);
        std::uint64_t end = r->write_pos.load(std::memory_order_acquire);
        ts.total = end;
        std::uint64_t begin = end > kRingCapacity ? end - kRingCapacity : 0;
        std::vector<std::uint64_t> raw;
        raw.reserve((end - begin) * 4);
        for (std::uint64_t seq = begin; seq < end; ++seq) {
            const Slot &s = r->slots[seq & kRingMask];
            for (int w = 0; w < 4; ++w)
                raw.push_back(s.w[w].load(std::memory_order_acquire));
        }
        // Anything the writer lapped during the copy is torn. A copied
        // word written for seq S makes the re-read cursor at least S
        // (the acquire loads above pair with emitEvent's release
        // stores), and a cursor of end2 means seq end2 may be
        // mid-store into slot end2 - kRingCapacity, so keep only seqs
        // above that one.
        std::uint64_t end2 = r->write_pos.load(std::memory_order_acquire);
        std::uint64_t valid_from =
            end2 + 1 > kRingCapacity ? end2 + 1 - kRingCapacity : 0;
        for (std::uint64_t seq = begin; seq < end; ++seq) {
            if (seq < valid_from)
                continue;
            const std::uint64_t *w = raw.data() + (seq - begin) * 4;
            EventView ev;
            ev.ts = w[0];
            ev.name = reinterpret_cast<const char *>(w[1]);
            ev.corr = w[2];
            ev.kind = static_cast<Kind>(w[3] >> 56);
            ev.clock = static_cast<Clock>((w[3] >> 48) & 0xff);
            ev.arg = w[3] & kArgMask;
            ts.events.push_back(ev);
        }
        out.push_back(std::move(ts));
    }
    return out;
}

std::uint64_t
eventsRecorded()
{
    std::uint64_t total = 0;
    int n = g_ring_count.load(std::memory_order_acquire);
    if (n > kMaxRings)
        n = kMaxRings;
    for (int i = 0; i < n; ++i) {
        Ring *r = g_rings[i].load(std::memory_order_acquire);
        if (r)
            total += r->write_pos.load(std::memory_order_acquire);
    }
    return total;
}

std::uint64_t
threadsRegistered()
{
    int n = g_ring_count.load(std::memory_order_acquire);
    return static_cast<std::uint64_t>(n > kMaxRings ? kMaxRings : n);
}

std::uint64_t
threadsDropped()
{
    return g_threads_dropped.load(std::memory_order_relaxed);
}

}  // namespace exist::obs
