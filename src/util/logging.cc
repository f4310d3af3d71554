#include "util/logging.h"

#include <chrono>
#include <cstdarg>

#include "util/thread_annotations.h"

namespace exist {

namespace {

CrashDumpHook g_crash_dump_hook = nullptr;

/** Leaf-ranked sink lock: one fully formatted line per acquisition, so
 *  concurrent writers never interleave mid-line. Never held across any
 *  other acquire. */
Mutex &
sinkMutex()
{
    static Mutex mu(lockorder::LockRank::kLeaf, "log.sink");
    return mu;
}

/** Monotonic milliseconds since the first log line of the process. */
double
monotonicMs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point base = clock::now();
    return std::chrono::duration<double, std::milli>(clock::now() - base)
        .count();
}

}  // namespace

CrashDumpHook
setCrashDumpHook(CrashDumpHook hook)
{
    CrashDumpHook prev = g_crash_dump_hook;
    g_crash_dump_hook = hook;
    return prev;
}

void
invokeCrashDumpHook(std::FILE *out)
{
    if (g_crash_dump_hook)
        g_crash_dump_hook(out);
}

namespace detail {

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<size_t>(n));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    }
    va_end(args);
    return out;
}

void
sinkLine(const char *level, const char *component, const std::string &msg)
{
    double ms = monotonicMs();
    MutexLock lock(sinkMutex());
    std::fprintf(stderr, "[%10.3f] %-5s %s | %s\n", ms, level, component,
                 msg.c_str());
}

void
terminate(const char *kind, const std::string &msg, const char *file,
          int line, bool core_dump)
{
    sinkLine(kind, "exist",
             format("%s (%s:%d)", msg.c_str(), file, line));
    // Last words: the flight recorder's view of every thread's recent
    // events, when the obs plane is linked in.
    invokeCrashDumpHook(stderr);
    if (core_dump)
        std::abort();
    std::exit(1);
}

}  // namespace detail
}  // namespace exist
