#include "analysis/behavior_report.h"

#include <algorithm>
#include <cstdio>

#include "analysis/report.h"
#include "workload/function_category.h"

namespace exist {

namespace {

/** Functions listed under "Hottest functions". */
constexpr int kTopFunctions = 10;
/** Flag threads whose longest off-CPU gap exceeds this (service
 *  threads naturally park on queues for ~ms). */
constexpr Cycles kBlockingThreshold = usToCycles(5000.0);

}  // namespace

std::string
BehaviorReport::synthesize(
    const ProgramBinary &binary,
    const std::vector<std::pair<CoreId, DecodedTrace>> &cores,
    const std::vector<SwitchRecord> &sidecar)
{
    std::string out;
    auto append = [&out](const char *fmt, auto... args) {
        char buf[256];
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out += buf;
    };

    // --- Aggregate --------------------------------------------------------
    std::vector<std::uint64_t> fn_insns(binary.numFunctions(), 0);
    std::uint64_t branches = 0, insns = 0, segments = 0;
    for (const auto &[core, trace] : cores) {
        branches += trace.branches_decoded;
        insns += trace.insns_decoded;
        segments += trace.segments.size();
        for (std::size_t f = 0; f < trace.function_insns.size(); ++f)
            fn_insns[f] += trace.function_insns[f];
    }

    append("EXIST behaviour report for '%s'\n",
           binary.name().c_str());
    append("  decoded: %llu branches, %llu instructions, %llu "
           "segments across %zu cores\n",
           (unsigned long long)branches, (unsigned long long)insns,
           (unsigned long long)segments, cores.size());

    // --- Hottest functions -------------------------------------------------
    std::vector<std::uint32_t> order(binary.numFunctions());
    for (std::uint32_t f = 0; f < binary.numFunctions(); ++f)
        order[f] = f;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return fn_insns[a] > fn_insns[b];
              });
    double total = 0;
    for (std::uint64_t v : fn_insns)
        total += static_cast<double>(v);

    out += "\nHottest functions:\n";
    for (int i = 0;
         i < kTopFunctions && i < static_cast<int>(order.size()); ++i) {
        std::uint32_t f = order[static_cast<std::size_t>(i)];
        if (fn_insns[f] == 0)
            break;
        append("  %-32s %6.2f%%\n", binary.function(f).name.c_str(),
               total > 0 ? 100.0 * static_cast<double>(fn_insns[f]) /
                               total
                         : 0.0);
    }

    // --- Category breakdown -------------------------------------------------
    double by_cat[kNumFunctionCategories] = {};
    for (std::uint32_t f = 0; f < binary.numFunctions(); ++f)
        by_cat[static_cast<std::size_t>(
            binary.function(f).category)] +=
            static_cast<double>(fn_insns[f]);
    out += "\nCostly-function categories (share of decoded "
           "instructions):\n";
    double mem = 0, sync = 0, kern = 0;
    for (std::size_t c = 0; c < kNumFunctionCategories; ++c) {
        auto cat = static_cast<FunctionCategory>(c);
        if (isMemoryCategory(cat))
            mem += by_cat[c];
        else if (isSyncCategory(cat))
            sync += by_cat[c];
        else if (isKernelCategory(cat))
            kern += by_cat[c];
    }
    append("  memory ops %.1f%%   synchronization %.1f%%   kernel ops "
           "%.1f%%\n",
           total > 0 ? 100 * mem / total : 0.0,
           total > 0 ? 100 * sync / total : 0.0,
           total > 0 ? 100 * kern / total : 0.0);

    // --- Per-thread view (via the five-tuple sidecar) -----------------------
    if (!sidecar.empty()) {
        ThreadAttributor attributor(sidecar);
        std::vector<std::map<ThreadId, ThreadTrace>> parts;
        for (const auto &[core, trace] : cores)
            parts.push_back(attributor.attribute(core, trace));
        auto merged = ThreadAttributor::merge(parts);

        out += "\nPer-thread activity (attributed via the 24-byte "
               "switch-log five-tuples):\n";
        for (const auto &[tid, tt] : merged) {
            if (tid == kInvalidId)
                continue;
            append("  tid %-6d  %6llu segments  %9llu branches  "
                   "%8.2f ms span  longest gap %8.2f ms%s\n",
                   tid, (unsigned long long)tt.segments,
                   (unsigned long long)tt.branches,
                   cyclesToMs(tt.active_cycles),
                   cyclesToMs(tt.longest_gap),
                   tt.longest_gap > kBlockingThreshold
                       ? "  << BLOCKED"
                       : "");
        }
    }
    return out;
}

}  // namespace exist
