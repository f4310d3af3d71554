/**
 * @file
 * Shared pieces of the benchmark's in-process programs:
 *
 *  - splitSession(): the traced per-module call sequence over one
 *    session spec — Oracle run, EXIST run (traces kept), EXIST run with
 *    ground truth, one serial decode, optionally the behaviour report —
 *    timing each call, so self times are differences between runs;
 *  - TimingJournal: a ControlJournal decorator that forwards every hook
 *    (and the on_consume callback it hands out) to a real journal and
 *    charges the time spent to the request;
 *  - JsonLine: the one-object-per-line output run.py reads.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/testbed.h"
#include "cluster/control_journal.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** Wall time and exact counts of one session's per-module calls. */
struct LayerSample {
    double oracle_s = 0;  ///< Oracle run: simulator alone
    double exist_s = 0;   ///< EXIST run, traces kept
    double truth_s = 0;   ///< EXIST run with the ground-truth recorder
    double decode_s = 0;  ///< serial decodeAll of the kept traces
    double report_s = 0;  ///< BehaviorReport::synthesize (when asked)

    std::uint64_t truth_branches = 0;
    std::uint64_t decoded_branches = 0;
    std::uint64_t context_switches = 0;
    std::uint64_t trace_bytes = 0;
    std::uint64_t msr_writes = 0;
    std::uint64_t segments = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t insns = 0;  ///< target app, EXIST run

    double coverage = 0;       ///< decoded / truth branches
    double wall_accuracy = 0;  ///< Wall accuracy of the decode
    double slowdown = 1;       ///< Comparison::slowdownOf the target
    std::string report;        ///< synthesized text (when asked)
};

/**
 * Run the per-module call sequence on `spec` (any backend setting is
 * overridden per call). `app` is the traced application; its binary
 * must already be built if its generation is to stay out of the
 * Oracle time (call Testbed::binaryForApp first).
 */
LayerSample splitSession(const exist::ExperimentSpec &spec,
                         const std::string &app, bool synthesize);

/** ControlJournal decorator that times every hook per request. */
class TimingJournal : public exist::ControlJournal
{
  public:
    explicit TimingJournal(exist::ControlJournal &inner) : inner_(inner)
    {
    }

    void onAdmit(const exist::TraceRequest &req) override;
    void onPlanned(std::uint64_t id, exist::RequestPhase outcome) override;
    exist::CollectHooks collectHooks(std::uint64_t id) override;
    void onPublish(std::uint64_t id,
                   const exist::PublishEffects &fx) override;

    /** Seconds spent in hooks, per request id, so far. */
    std::map<std::uint64_t, double> perRequest() const;

  private:
    void charge(std::uint64_t id, Clock::time_point t0);

    exist::ControlJournal &inner_;
    mutable std::mutex mu_;
    std::map<std::uint64_t, double> seconds_;
};

/** One flat JSON object, built field by field. */
class JsonLine
{
  public:
    JsonLine &num(const std::string &key, double v);
    JsonLine &count(const std::string &key, std::uint64_t v);
    JsonLine &text(const std::string &key, const std::string &v);
    JsonLine &nums(const std::string &key, const std::vector<double> &v);
    std::string str() const { return "{" + body_ + "}"; }

  private:
    JsonLine &raw(const std::string &key, const std::string &json);
    std::string body_;
};

/** Process peak resident set, in MB. */
double peakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
