/**
 * @file
 * Structured logging and error-termination helpers, following the gem5
 * fatal/panic idiom: fatal() is for user errors (bad configuration),
 * panic() is for internal invariant violations (a bug in this library).
 *
 * Every line goes through a single serialized sink, so concurrent
 * writers (pool workers, agent callbacks, shard reconcilers) can never
 * interleave mid-line, and carries a structured prefix:
 *
 *   [   123.456] warn  agent | resend budget exhausted
 *
 * — a monotonic millisecond timestamp since process start, the level,
 * and the emitting component.  All logging is stderr-only: stdout is
 * reserved for report bytes and stays byte-comparable across runs.
 *
 * Every level always prints: kError, kWarn, and kNote (operator
 * telemetry — progress lines from existctl and the collection plane).
 *
 * Fatal/panic termination additionally invokes the crash-dump hook if
 * one is installed; src/obs wires the flight recorder in through it so
 * every fatal error is followed by the last events of every thread.
 */
#ifndef EXIST_UTIL_LOGGING_H
#define EXIST_UTIL_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <string>

namespace exist {

/** Severity of a log line (selects the prefix). */
enum class LogLevel {
    kError,
    kWarn,
    kNote,  ///< operator telemetry
};

/**
 * Hook invoked (with stderr) just before fatal/panic termination and
 * from the durability crash-point handler; returns the previous hook.
 * Installed by the obs plane to dump the flight recorder.
 */
using CrashDumpHook = void (*)(std::FILE *);
CrashDumpHook setCrashDumpHook(CrashDumpHook hook);

/** Invoke the installed crash-dump hook, if any (crash paths). */
void invokeCrashDumpHook(std::FILE *out);

namespace detail {

[[noreturn]] void terminate(const char *kind, const std::string &msg,
                            const char *file, int line, bool core_dump);

/** Format one prefixed line and write it atomically to stderr. */
void sinkLine(const char *level, const char *component,
              const std::string &msg);

std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace detail

/** Display name of `level` in the line prefix. */
constexpr const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::kError: return "error";
      case LogLevel::kWarn: return "warn";
      case LogLevel::kNote: return "note";
    }
    return "?";
}

/** Structured log line from `component` at `level`. */
template <typename... Args>
void
logLine(LogLevel level, const char *component, const char *fmt, Args... args)
{
    detail::sinkLine(logLevelName(level), component,
                     detail::format(fmt, args...));
}

/** Operator telemetry (progress/config lines) — the replacement for
 *  bare fprintf. */
template <typename... Args>
void
note(const char *component, const char *fmt, Args... args)
{
    logLine(LogLevel::kNote, component, fmt, args...);
}

/** Warning about suspicious but non-fatal conditions. */
template <typename... Args>
void
warn(const char *fmt, Args... args)
{
    detail::sinkLine("warn", "exist", detail::format(fmt, args...));
}

/** Terminate because of a user error (bad config, invalid argument). */
#define EXIST_FATAL(...)                                                  \
    ::exist::detail::terminate("fatal", ::exist::detail::format(__VA_ARGS__), \
                               __FILE__, __LINE__, false)

/** Terminate because of an internal bug (invariant violation). */
#define EXIST_PANIC(...)                                                  \
    ::exist::detail::terminate("panic", ::exist::detail::format(__VA_ARGS__), \
                               __FILE__, __LINE__, true)

/** Assert an internal invariant with a formatted message. */
#define EXIST_ASSERT(cond, ...)                                           \
    do {                                                                  \
        if (!(cond))                                                      \
            EXIST_PANIC(__VA_ARGS__);                                     \
    } while (0)

}  // namespace exist

#endif  // EXIST_UTIL_LOGGING_H
