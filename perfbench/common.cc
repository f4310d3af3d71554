#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <utility>

#include "analysis/accuracy.h"
#include "analysis/behavior_report.h"
#include "decode/parallel_decoder.h"

namespace perfbench {

using namespace exist;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

ExperimentResult
timedRun(const ExperimentSpec &spec, double &seconds)
{
    Clock::time_point t0 = Clock::now();
    ExperimentResult r = Testbed::run(spec);
    seconds = secondsSince(t0);
    return r;
}

}  // namespace

LayerSample
splitSession(const ExperimentSpec &spec, const std::string &app,
             bool synthesize)
{
    LayerSample s;

    ExperimentSpec oracle = spec;
    oracle.backend = "Oracle";
    oracle.decode = false;
    oracle.ground_truth = false;
    oracle.record_paths = false;
    oracle.keep_traces = false;
    oracle.streaming = false;
    ExperimentResult ro = timedRun(oracle, s.oracle_s);

    ExperimentSpec traced = oracle;
    traced.backend = "EXIST";
    traced.keep_traces = true;
    ExperimentResult re = timedRun(traced, s.exist_s);

    ExperimentSpec truth = traced;
    truth.ground_truth = true;
    ExperimentResult rg = timedRun(truth, s.truth_s);

    auto binary = Testbed::binaryForApp(app);
    DecodeOptions opts;
    opts.block_cache = spec.decode_cache;
    opts.tnt_memo_bits = spec.tnt_memo_bits;
    Clock::time_point t0 = Clock::now();
    ParallelDecoder decoder(binary.get(), opts, 1);
    std::vector<std::pair<CoreId, DecodedTrace>> decoded =
        decoder.decodeAll(rg.raw_traces);
    s.decode_s = secondsSince(t0);

    std::vector<std::uint64_t> fn_insns(binary->numFunctions(), 0);
    for (const auto &[core, dt] : decoded) {
        s.decoded_branches += dt.branches_decoded;
        s.segments += dt.segments.size();
        s.memo_hits += dt.cache_stats.memo_hits;
        s.memo_misses += dt.cache_stats.memo_misses;
        for (std::size_t f = 0; f < dt.function_insns.size(); ++f)
            fn_insns[f] += dt.function_insns[f];
    }
    s.truth_branches = rg.truth_branches;
    s.coverage = coverageAccuracy(s.decoded_branches, rg.truth_branches);
    s.wall_accuracy = wallWeightAccuracy(fn_insns, rg.truth_function_insns);
    s.context_switches = rg.context_switch_total;
    s.trace_bytes = rg.backend_stats.trace_real_bytes;
    s.msr_writes = rg.backend_stats.msr_writes;
    s.insns = rg.at(app).insns;

    Testbed::Comparison cmp{std::move(ro), std::move(re)};
    s.slowdown = cmp.slowdownOf(app);

    if (synthesize) {
        t0 = Clock::now();
        s.report = BehaviorReport::synthesize(*binary, decoded, rg.switch_log);
        s.report_s = secondsSince(t0);
    }
    return s;
}

void
TimingJournal::charge(std::uint64_t id, Clock::time_point t0)
{
    double dt = secondsSince(t0);
    std::lock_guard<std::mutex> lk(mu_);
    seconds_[id] += dt;
}

void
TimingJournal::onAdmit(const TraceRequest &req)
{
    Clock::time_point t0 = Clock::now();
    inner_.onAdmit(req);
    charge(req.id, t0);
}

void
TimingJournal::onPlanned(std::uint64_t id, RequestPhase outcome)
{
    Clock::time_point t0 = Clock::now();
    inner_.onPlanned(id, outcome);
    charge(id, t0);
}

CollectHooks
TimingJournal::collectHooks(std::uint64_t id)
{
    Clock::time_point t0 = Clock::now();
    CollectHooks hooks = inner_.collectHooks(id);
    if (hooks.on_consume) {
        hooks.on_consume = [this, id, consume = std::move(hooks.on_consume)](
                               NodeId node, std::uint64_t stream,
                               std::uint64_t seq, std::uint64_t total,
                               const std::vector<std::uint8_t> &chunk) {
            Clock::time_point c0 = Clock::now();
            consume(node, stream, seq, total, chunk);
            charge(id, c0);
        };
    }
    charge(id, t0);
    return hooks;
}

void
TimingJournal::onPublish(std::uint64_t id, const PublishEffects &fx)
{
    Clock::time_point t0 = Clock::now();
    inner_.onPublish(id, fx);
    charge(id, t0);
}

std::map<std::uint64_t, double>
TimingJournal::perRequest() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return seconds_;
}

JsonLine &
JsonLine::raw(const std::string &key, const std::string &json)
{
    if (!body_.empty())
        body_ += ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
}

JsonLine &
JsonLine::num(const std::string &key, double v)
{
    if (!std::isfinite(v))
        return raw(key, "null");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
}

JsonLine &
JsonLine::count(const std::string &key, std::uint64_t v)
{
    return raw(key, std::to_string(v));
}

JsonLine &
JsonLine::text(const std::string &key, const std::string &v)
{
    std::string out = "\"";
    for (char c : v) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return raw(key, out + "\"");
}

JsonLine &
JsonLine::nums(const std::string &key, const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
        out += buf;
    }
    return raw(key, out + "]");
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
