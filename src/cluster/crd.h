/**
 * @file
 * The configuration interface of EXIST's cluster integration (paper §4):
 * tracing requests are Custom-Resource-Definition-style objects created
 * through a unified interface; a controller reconciles them. The
 * key=value text form models the kubectl-applied manifest.
 */
#ifndef EXIST_CLUSTER_CRD_H
#define EXIST_CLUSTER_CRD_H

#include <cstdint>
#include <string>

#include "net/fabric.h"
#include "util/types.h"

namespace exist {

/** Lifecycle of a TraceRequest object. */
enum class RequestPhase : std::uint8_t {
    kPending,
    kRunning,
    kCompleted,
    kFailed,
};

inline const char *
requestPhaseName(RequestPhase p)
{
    switch (p) {
      case RequestPhase::kPending: return "Pending";
      case RequestPhase::kRunning: return "Running";
      case RequestPhase::kCompleted: return "Completed";
      case RequestPhase::kFailed: return "Failed";
    }
    return "?";
}

/** A tracing request CRD. */
struct TraceRequest {
    std::uint64_t id = 0;  ///< assigned by the API server
    std::string app;       ///< target application name
    /** Anomaly-triggered requests trace every repetition (§3.4). */
    bool anomaly = false;
    /** User override of the tracing period; 0 = let RCO decide. */
    Cycles period_override = 0;
    /** Node memory budget for trace buffers (MB). */
    std::uint64_t budget_mb = 500;
    /** Personalized option: ring buffers instead of compulsory STOP. */
    bool ring_buffers = false;
    /** Personalized option: UMA core sampling ratio (0 = default). */
    double core_sample_ratio = 0.0;
    /** Collection plane (ISSUE 6): ship session results node -> master
     *  over the simulated fabric instead of in-process. The knobs below
     *  only apply when net=true. */
    bool net = false;
    double net_loss = 0.0;       ///< per-frame drop probability
    double net_reorder = 0.0;    ///< per-frame reorder probability
    double net_duplicate = 0.0;  ///< per-frame duplicate probability
    double net_link_latency_us = 50.0;

    RequestPhase phase = RequestPhase::kPending;

    /** The fabric configuration this request asks for. */
    net::NetSpec netSpec() const;

    /**
     * Set one manifest key from its text, e.g. ("loss", "0.05"). Every
     * value is checked: numbers use the whole text and are finite and
     * in range, booleans are true|false|1|0. The keys and ranges:
     *
     *   app                          text, non-empty
     *   anomaly ring net             boolean
     *   period_ms                    ms in (0, 1e9], at least one
     *                                cycle; omit it to let RCO decide
     *   budget_mb                    integer in [1, 1048576]
     *   core_sample_ratio            [0, 1] (0 = default)
     *   loss reorder duplicate       [0, 1) (at 1 nothing arrives)
     *   link_latency_us              [0, 1e6]
     *
     * Returns false with `*error` naming the key on an unknown key or
     * a bad value, leaving the request unchanged.
     */
    bool set(const std::string &key, const std::string &value,
             std::string *error);

    /**
     * Parse a manifest of "key=value" pairs separated by whitespace or
     * newlines, e.g. "app=Search1 anomaly=true period_ms=500", through
     * set(). Returns false with `*error` set on a malformed token, an
     * unknown key, a bad value or a missing app=; `*out` is written
     * only on success.
     */
    static bool parse(const std::string &manifest, TraceRequest *out,
                      std::string *error);

    /** Render back to manifest form. */
    std::string toManifest() const;
};

}  // namespace exist

#endif  // EXIST_CLUSTER_CRD_H
