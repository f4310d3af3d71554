/**
 * @file
 * The experiment harness every benchmark and integration test drives:
 * it assembles a node (kernel + workloads + load), attaches a tracing
 * backend for one session, and measures what the paper measures —
 * progress (instructions retired), CPI, throughput, latency
 * percentiles, event counters, space, and decode accuracy. Runs are
 * seed-deterministic, so a backend run and its Oracle run differ only
 * by the backend's instrumentation.
 */
#ifndef EXIST_ANALYSIS_TESTBED_H
#define EXIST_ANALYSIS_TESTBED_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/backend.h"
#include "decode/flow_reconstructor.h"
#include "os/kernel.h"
#include "util/stats.h"
#include "util/types.h"

namespace exist {

/** One workload deployed on the experiment node. */
struct WorkloadSpec {
    std::string app;            ///< catalog profile name
    std::vector<CoreId> cores;  ///< affinity; empty = all cores
    bool target = false;        ///< the session's traced process
    double load_rps = 0.0;      ///< open-loop load (services only)
    int closed_clients = 0;     ///< closed-loop concurrent clients
    int workers = 0;            ///< worker threads; 0 = profile default
    std::string downstream;     ///< app name this service RPCs into
    /** RPCs per request to the downstream (-1 = profile default). */
    int downstream_rpcs = -1;
};

struct ExperimentSpec {
    NodeConfig node;
    std::vector<WorkloadSpec> workloads;
    /** Backend: Oracle | EXIST | StaSam | eBPF | NHT. */
    std::string backend = "Oracle";
    SessionSpec session;
    Cycles warmup = secondsToCycles(0.08);
    bool ground_truth = false;
    bool record_paths = false;
    bool decode = false;
    /** Keep the raw per-core trace bytes in the result (for upload to
     *  an object store by the cluster layer). */
    bool keep_traces = false;
    /** Workers for the per-core decode fan-out: 0 = the process-wide
     *  shared pool (hardware concurrency), 1 = inline serial decode,
     *  N > 1 = a dedicated pool. Output is bit-identical at any
     *  setting; this only changes wall-clock decode time. */
    int decode_threads = 0;
    /** Retired: sessions decode after the window, never during it.
     *  Must stay false (Testbed::run asserts it); kept only until
     *  perfbench/common.cc stops assigning it. */
    bool streaming = false;
    /** Decode through the per-binary BlockCache + TNT-run memo fast
     *  path (DESIGN.md §11). Off = the legacy CFG walk, kept as the
     *  bit-identical reference. Only wall-clock decode time changes. */
    bool decode_cache = true;
    /** TNT-memo window size in bits (0 disables memoization, the
     *  block cache alone still applies); clamped to [0, 16]. */
    int tnt_memo_bits = 6;
    std::uint64_t seed = 1;
};

/** Per-application measurements over the tracing window. */
struct AppResult {
    std::string name;
    std::uint64_t insns = 0;
    Cycles user_cycles = 0;
    Cycles kernel_cycles = 0;
    double cpi = 0.0;
    double insn_rate = 0.0;  ///< instructions per virtual second
    std::uint64_t completed = 0;
    std::uint64_t context_switches = 0;
    std::uint64_t migrations = 0;
    std::uint64_t syscalls = 0;
    double branch_misses = 0.0;
    double l1_misses = 0.0;
    double llc_misses = 0.0;
    Samples latencies_us;  ///< e2e latencies, when load-driven
};

struct ExperimentResult {
    std::vector<AppResult> apps;
    BackendStats backend_stats;
    Cycles window = 0;
    double node_utilization = 0.0;
    Cycles node_kernel_cycles = 0;
    std::uint64_t context_switch_total = 0;
    std::vector<SwitchRecord> switch_log;

    // Accuracy data (when spec.decode / ground_truth).
    std::uint64_t truth_branches = 0;
    std::uint64_t decoded_branches = 0;
    double accuracy_coverage = 0.0;
    double accuracy_wall = 0.0;
    std::uint64_t decode_errors = 0;
    std::vector<std::uint64_t> decoded_function_insns;
    std::vector<std::uint64_t> truth_function_insns;
    std::vector<std::uint64_t> decoded_function_entries;
    // Path-validation data (when record_paths).
    double path_precision = 1.0;
    /** Raw collected traces (when keep_traces). */
    std::vector<CollectedTrace> raw_traces;
    /** The session's per-core decode, in collection order (when
     *  spec.decode): the one decode behind the accuracy fields, read
     *  again by the behaviour report and the decode.cache.* metrics
     *  instead of decoding twice. Each block_path is released once
     *  path_precision is scored. Not collection-borne. */
    std::vector<std::pair<CoreId, DecodedTrace>> decoded;

    const AppResult *find(const std::string &name) const;
    const AppResult &at(const std::string &name) const;
};

class Testbed
{
  public:
    static std::unique_ptr<TracerBackend>
    makeBackend(const std::string &name);

    /** The binary repository: deterministic binary for an application
     *  (seed 0 = the stable per-app default used by every node). */
    static std::shared_ptr<const ProgramBinary>
    binaryForApp(const std::string &app, std::uint64_t seed = 0);

    static ExperimentResult run(const ExperimentSpec &spec);

    /** A backend run and its matching Oracle run. */
    struct Comparison {
        ExperimentResult oracle;
        ExperimentResult traced;

        /** Execution-progress slowdown of one app (>= 1 is slower). */
        double slowdownOf(const std::string &app) const;
        /** Normalized throughput (traced / oracle, <= 1 is slower). */
        double throughputRatio(const std::string &app) const;
        /** CPI overhead of one app (traced CPI / oracle CPI - 1). */
        double cpiOverheadOf(const std::string &app) const;
    };

    static Comparison compare(ExperimentSpec spec);
};

}  // namespace exist

#endif  // EXIST_ANALYSIS_TESTBED_H
