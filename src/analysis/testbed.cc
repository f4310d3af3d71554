#include "analysis/testbed.h"

#include <map>

#include "analysis/accuracy.h"
#include "analysis/ground_truth.h"
#include "baselines/ebpf.h"
#include "baselines/nht.h"
#include "baselines/oracle.h"
#include "baselines/stasam.h"
#include "core/exist_backend.h"
#include "decode/parallel_decoder.h"
#include "obs/trace_plane.h"
#include "os/loadgen.h"
#include "os/service.h"
#include "util/logging.h"
#include "util/thread_annotations.h"
#include "workload/app_profile.h"

namespace exist {

namespace {

std::uint64_t
stableHash(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Cache binaries: generation is deterministic in (profile, seed), and
 *  sharing them keeps multi-run benchmarks fast. Mutex-guarded because
 *  sessions may run concurrently on pool workers (parallel cluster
 *  reconcile); generation happens outside the lock so a slow generate
 *  does not serialize unrelated sessions. */
std::shared_ptr<const ProgramBinary>
binaryFor(const std::string &app, std::uint64_t seed)
{
    static Mutex mu(lockorder::LockRank::kLeaf,
                    "testbed.binary_cache");
    static std::map<std::pair<std::string, std::uint64_t>,
                    std::shared_ptr<const ProgramBinary>>
        cache;
    auto key = std::make_pair(app, seed);
    {
        MutexLock lk(mu);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }
    AppProfile profile = AppCatalog::find(app);
    auto bin = std::make_shared<const ProgramBinary>(
        ProgramBinary::generate(profile, seed));
    MutexLock lk(mu);
    // A racing generator may have inserted first; keep the winner so
    // every caller shares one instance.
    return cache.emplace(key, bin).first->second;
}

struct DeployedWorkload {
    const WorkloadSpec *spec = nullptr;
    Process *proc = nullptr;
    std::unique_ptr<Service> service;
    std::unique_ptr<PoissonLoadGen> loadgen;
    std::unique_ptr<ClosedLoopLoadGen> closed_loadgen;
    TaskCounters baseline;  ///< counters snapshot at window start
    std::uint64_t completed_baseline = 0;
};

TaskCounters
processCounters(const Process &proc)
{
    TaskCounters total;
    for (const Thread *t : proc.threads())
        total.accumulate(t->counters());
    return total;
}

}  // namespace

const AppResult *
ExperimentResult::find(const std::string &name) const
{
    for (const auto &a : apps)
        if (a.name == name)
            return &a;
    return nullptr;
}

const AppResult &
ExperimentResult::at(const std::string &name) const
{
    const AppResult *r = find(name);
    EXIST_ASSERT(r != nullptr, "no app result named %s", name.c_str());
    return *r;
}

std::shared_ptr<const ProgramBinary>
Testbed::binaryForApp(const std::string &app, std::uint64_t seed)
{
    return binaryFor(app, seed ? seed : stableHash(app));
}

std::unique_ptr<TracerBackend>
Testbed::makeBackend(const std::string &name)
{
    if (name == "Oracle")
        return std::make_unique<OracleBackend>();
    if (name == "EXIST")
        return std::make_unique<ExistBackend>();
    if (name == "StaSam")
        return std::make_unique<StaSamBackend>();
    if (name == "eBPF")
        return std::make_unique<EbpfBackend>();
    if (name == "NHT")
        return std::make_unique<NhtBackend>();
    EXIST_FATAL("unknown backend '%s'", name.c_str());
}

ExperimentResult
Testbed::run(const ExperimentSpec &spec)
{
    EXIST_ASSERT(!spec.workloads.empty(), "experiment needs workloads");
    EXIST_ASSERT(!spec.streaming, "ExperimentSpec::streaming is retired");
    // Each phase below has its own span; together they cover
    // session.run, so a self-trace shows where a session's time went.
    const std::uint64_t corr = obs::corrId(spec.seed);
    EXIST_SPAN("session.run", corr);

    NodeConfig node_cfg = spec.node;
    node_cfg.seed = spec.seed;
    Kernel kernel(node_cfg);

    // --- Deploy workloads -------------------------------------------------
    std::vector<DeployedWorkload> deployed;
    const WorkloadSpec *target_spec = nullptr;
    {
        EXIST_SPAN("session.deploy", corr);
        deployed.reserve(spec.workloads.size());
        Rng seeds(spec.seed ^ 0x9d2c5680u);
        for (const WorkloadSpec &w : spec.workloads) {
            auto binary = binaryFor(w.app, stableHash(w.app));
            const AppProfile &profile = binary->profile();

            DeployedWorkload d;
            d.spec = &w;
            d.proc = kernel.createProcess(w.app, binary, w.cores);

            int nthreads =
                w.workers > 0 ? w.workers : profile.num_threads;
            if (profile.is_service) {
                d.service = std::make_unique<Service>(
                    &kernel, d.proc, seeds.fork(stableHash(w.app)).next());
                d.service->spawnWorkers(nthreads);
            } else {
                for (int i = 0; i < nthreads; ++i) {
                    Thread *t = kernel.createThread(d.proc, nullptr);
                    kernel.startThread(t);
                }
            }
            if (w.target) {
                EXIST_ASSERT(target_spec == nullptr,
                             "only one target workload allowed");
                target_spec = &w;
            }
            deployed.push_back(std::move(d));
        }

        // Wire RPC chains and load generators after all services exist.
        for (DeployedWorkload &d : deployed) {
            if (!d.spec->downstream.empty()) {
                EXIST_ASSERT(d.service != nullptr,
                             "%s has a downstream but is not a service",
                             d.spec->app.c_str());
                Service *down = nullptr;
                for (DeployedWorkload &o : deployed)
                    if (o.spec->app == d.spec->downstream)
                        down = o.service.get();
                EXIST_ASSERT(down != nullptr, "downstream %s not found",
                             d.spec->downstream.c_str());
                d.service->setDownstream(down);
                if (d.spec->downstream_rpcs >= 0)
                    d.service->setRpcsPerRequest(d.spec->downstream_rpcs);
            }
            if (d.service && d.spec->closed_clients > 0) {
                d.closed_loadgen = std::make_unique<ClosedLoopLoadGen>(
                    &kernel, d.service.get(), d.spec->closed_clients,
                    seeds.fork(stableHash(d.spec->app) ^ 0x10adULL)
                        .next());
                d.closed_loadgen->start();
            } else if (d.service && d.spec->load_rps > 0.0) {
                d.loadgen = std::make_unique<PoissonLoadGen>(
                    &kernel, d.service.get(), d.spec->load_rps,
                    seeds.fork(stableHash(d.spec->app) ^ 0x10adULL)
                        .next());
                d.loadgen->start();
            }
        }
    }

    // --- Warm up ----------------------------------------------------------
    {
        EXIST_SPAN("session.warmup", corr);
        kernel.runFor(spec.warmup);
    }

    // --- Arm the session --------------------------------------------------
    SessionSpec session = spec.session;
    GroundTruthRecorder truth;
    std::vector<Cycles> busy0(
        static_cast<std::size_t>(kernel.numCores()));
    Cycles kern0 = 0;
    std::uint64_t switches0 = 0;
    std::unique_ptr<TracerBackend> backend;
    Cycles t0 = 0;
    {
        EXIST_SPAN("session.arm", corr);
        if (target_spec != nullptr)
            session.target = kernel.findProcess(target_spec->app);

        if ((spec.ground_truth || spec.decode) && session.target)
            truth.arm(kernel, session.target->pid(), spec.record_paths);

        for (DeployedWorkload &d : deployed) {
            if (d.loadgen)
                d.loadgen->setWarmupUntil(kernel.now());
            if (d.closed_loadgen)
                d.closed_loadgen->setWarmupUntil(kernel.now());
            d.baseline = processCounters(*d.proc);
            d.completed_baseline =
                d.service ? d.service->completedCount() : 0;
        }
        for (int c = 0; c < kernel.numCores(); ++c) {
            busy0[static_cast<std::size_t>(c)] = kernel.coreBusyCycles(c);
            kern0 += kernel.coreKernelCycles(c);
        }
        switches0 = kernel.totalContextSwitches();

        backend = makeBackend(spec.backend);
        t0 = kernel.now();
        if (session.target != nullptr || spec.backend == "Oracle")
            backend->start(kernel, session);
    }

    // --- The measured window == the tracing period ------------------------
    {
        EXIST_SPAN("session.window",
                   obs::corrId(spec.seed, session.period));
        kernel.runFor(session.period);
        backend->stop(kernel);
    }

    // --- Collect ----------------------------------------------------------
    ExperimentResult result;
    std::vector<CollectedTrace> collected;
    {
        EXIST_SPAN("session.collect", corr);
        if ((spec.ground_truth || spec.decode) && session.target)
            truth.disarm(kernel);

        result.window = kernel.now() - t0;
        result.backend_stats = backend->stats();
        result.context_switch_total =
            kernel.totalContextSwitches() - switches0;
        if (auto *eb = dynamic_cast<ExistBackend *>(backend.get()))
            result.switch_log = eb->switchLog();

        double window_s = cyclesToSeconds(result.window);
        Cycles busy_total = 0;
        Cycles kern1 = 0;
        for (int c = 0; c < kernel.numCores(); ++c) {
            busy_total += kernel.coreBusyCycles(c) -
                          busy0[static_cast<std::size_t>(c)];
            kern1 += kernel.coreKernelCycles(c);
        }
        result.node_utilization =
            static_cast<double>(busy_total) /
            (static_cast<double>(result.window) * kernel.numCores());
        result.node_kernel_cycles = kern1 - kern0;

        for (DeployedWorkload &d : deployed) {
            TaskCounters after = processCounters(*d.proc);
            AppResult ar;
            ar.name = d.spec->app;
            ar.insns = after.insns - d.baseline.insns;
            ar.user_cycles = after.user_cycles - d.baseline.user_cycles;
            ar.kernel_cycles =
                after.kernel_cycles - d.baseline.kernel_cycles;
            // CPI as a hardware counter would report it: all cycles the
            // task consumed (user + kernel context) per instruction.
            ar.cpi = ar.insns
                         ? static_cast<double>(ar.user_cycles +
                                               ar.kernel_cycles) /
                               static_cast<double>(ar.insns)
                         : 0.0;
            ar.insn_rate = static_cast<double>(ar.insns) / window_s;
            ar.context_switches =
                after.context_switches - d.baseline.context_switches;
            ar.migrations = after.migrations - d.baseline.migrations;
            ar.syscalls = after.syscalls - d.baseline.syscalls;
            ar.branch_misses =
                after.branch_misses - d.baseline.branch_misses;
            ar.l1_misses = after.l1_misses - d.baseline.l1_misses;
            ar.llc_misses = after.llc_misses - d.baseline.llc_misses;
            if (d.service)
                ar.completed =
                    d.service->completedCount() - d.completed_baseline;
            if (d.loadgen)
                ar.latencies_us = d.loadgen->latencies();
            else if (d.closed_loadgen)
                ar.latencies_us = d.closed_loadgen->latencies();
            result.apps.push_back(std::move(ar));
        }

        if (session.target && (spec.decode || spec.ground_truth)) {
            result.truth_branches = truth.totalBranches();
            result.truth_function_insns = truth.functionInsns();
        }
        if ((spec.decode || spec.keep_traces) && session.target &&
            backend->producesInstructionTrace())
            collected = backend->collect();
    }

    // --- Decode & score ----------------------------------------------------
    if (spec.decode && session.target &&
        backend->producesInstructionTrace()) {
        EXIST_SPAN("session.decode", corr);
        const ProgramBinary &binary = session.target->binary();
        DecodeOptions opts;
        opts.record_path = spec.record_paths;
        opts.block_cache = spec.decode_cache;
        opts.tnt_memo_bits = spec.tnt_memo_bits;

        // Per-core buffers are independent; fan the decode across the
        // pool and aggregate in collection order, which keeps every
        // result field bit-identical to the serial path.
        ParallelDecoder rec(&binary, opts, spec.decode_threads);
        result.decoded = rec.decodeAll(collected);

        result.decoded_function_insns.assign(binary.numFunctions(), 0);
        result.decoded_function_entries.assign(binary.numFunctions(), 0);
        std::uint64_t path_matched = 0, path_total = 0;

        for (auto &[core, dt] : result.decoded) {
            result.decoded_branches += dt.branches_decoded;
            result.decode_errors += dt.decode_errors;
            for (std::size_t f = 0; f < dt.function_insns.size(); ++f) {
                result.decoded_function_insns[f] += dt.function_insns[f];
                result.decoded_function_entries[f] +=
                    dt.function_entries[f];
            }
            if (spec.record_paths && core != kInvalidId &&
                static_cast<std::size_t>(core) <
                    truth.paths().size()) {
                PathMatch pm = matchPath(
                    dt.block_path,
                    truth.paths()[static_cast<std::size_t>(core)]);
                path_matched += pm.matched;
                path_total += dt.block_path.size();
            }
            // path_precision is the path's only reader. Swap rather
            // than `= {}`, which keeps the capacity.
            std::vector<std::uint32_t>().swap(dt.block_path);
        }
        result.accuracy_coverage = coverageAccuracy(
            result.decoded_branches, result.truth_branches);
        result.accuracy_wall = wallWeightAccuracy(
            result.decoded_function_insns, result.truth_function_insns);
        result.path_precision =
            path_total ? static_cast<double>(path_matched) /
                             static_cast<double>(path_total)
                       : 1.0;
    }
    if (spec.keep_traces)
        result.raw_traces = std::move(collected);
    return result;
}

Testbed::Comparison
Testbed::compare(ExperimentSpec spec)
{
    Comparison cmp;
    ExperimentSpec oracle_spec = spec;
    oracle_spec.backend = "Oracle";
    oracle_spec.decode = false;
    oracle_spec.ground_truth = false;
    oracle_spec.record_paths = false;
    cmp.oracle = run(oracle_spec);
    cmp.traced = run(spec);
    return cmp;
}

double
Testbed::Comparison::slowdownOf(const std::string &app) const
{
    const AppResult &o = oracle.at(app);
    const AppResult &t = traced.at(app);
    if (t.insn_rate <= 0)
        return 1.0;
    return o.insn_rate / t.insn_rate;
}

double
Testbed::Comparison::throughputRatio(const std::string &app) const
{
    const AppResult &o = oracle.at(app);
    const AppResult &t = traced.at(app);
    if (o.completed == 0)
        return 1.0;
    return static_cast<double>(t.completed) /
           static_cast<double>(o.completed);
}

double
Testbed::Comparison::cpiOverheadOf(const std::string &app) const
{
    const AppResult &o = oracle.at(app);
    const AppResult &t = traced.at(app);
    if (o.cpi <= 0)
        return 0.0;
    return t.cpi / o.cpi - 1.0;
}

}  // namespace exist
