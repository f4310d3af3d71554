/**
 * @file
 * Crash-injection harness for the durability plane (DESIGN.md §12):
 * the journal threads named crash points through every WAL-append /
 * state-apply boundary, and tests arm exactly one of them to die
 * mid-mutation, then recover and byte-compare against a crash-free
 * run.
 *
 * Arming specs:
 *   "post-plan"     die at the first crossing of that named point
 *   "pre-store:3"   die at the 3rd crossing of that named point
 *   "step:17"       die at the 17th crossing of ANY point (the
 *                   randomized event-queue-step mode: every crossing
 *                   increments a global step counter, so a uniformly
 *                   drawn N kills the master at an arbitrary
 *                   journal-order boundary)
 *
 * Crash-point catalog (where `hit()` is called; kNames lists them):
 *   admit          after the kAdmit WAL append, before the request is
 *                  inserted into the API-server map
 *   post-plan      after the kPlan append, before the phase flip; a
 *                  crash anywhere from here to pre-store (sessions,
 *                  collection) recovers the same way: re-plan, re-run
 *   pre-store      after the kPublish append (full effects logged),
 *                  before any store/ledger/report state is written
 *   mid-snapshot   after the snapshot tmp file is written, before the
 *                  atomic rename
 *   post-snapshot  after the rename, before old segments truncate
 *
 * Two crash styles:
 *   - default handler: fprintf + std::_Exit(42) — a real process
 *     death for the existctl subprocess tests (nothing but flushed
 *     WAL bytes survives);
 *   - test handler: throw CrashInjected{} — in-process matrix tests
 *     run the control plane with threads=1 so the exception unwinds
 *     to the driver on the calling thread, the "dead" master's state
 *     is discarded, and recovery runs in the same process.
 *
 * Thread-safety: arming/disarming happens only between runs; hit()
 * uses atomics so concurrent shard threads may cross points freely.
 */
#ifndef EXIST_DURABILITY_CRASH_POINT_H
#define EXIST_DURABILITY_CRASH_POINT_H

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace exist::durability::crashpoint {

/** Every named point, in journal order (the catalog above). */
inline constexpr std::array<std::string_view, 5> kNames = {
    "admit", "post-plan", "pre-store", "mid-snapshot", "post-snapshot"};

/** Thrown by a test-installed handler; never escapes production use
 *  (the default handler exits the process). */
struct CrashInjected {
    std::string point;
};

using Handler = void (*)(const std::string &point);

/** Arm a crash spec (see file comment). Empty string disarms. */
void arm(const std::string &spec);
void disarm();
bool armed();

/** Install the crash handler (nullptr = restore the default
 *  _Exit(42) handler). Returns the previous handler. */
Handler setHandler(Handler h);

/** Crossings of any point since the last resetSteps(). Counted even
 *  while disarmed, so a crash-free run measures the step space the
 *  randomized mode draws from. */
std::uint64_t steps();
void resetSteps();

/** Cross the named point: bumps the step counter, fires when armed. */
void hit(const char *point);

}  // namespace exist::durability::crashpoint

#endif  // EXIST_DURABILITY_CRASH_POINT_H
