/**
 * @file
 * Serialization of the collection-borne slice of an ExperimentResult:
 * exactly the fields capturePublish() reads from a completed session
 * (raw traces, decoded/truth function profiles, decoded branch count,
 * wall accuracy, the target app's CPI). A session that travels the
 * simulated fabric has these fields moved out at the worker (take()),
 * shipped as an encoded SessionPayload, and moved back in at the
 * master (applyTo()) — so the published report is byte-identical to
 * in-process delivery exactly when the transfer completed (the
 * byte-compare ctests pin this at drop rates up to the retry budget).
 *
 * Two encodings share one struct:
 *   encode()        the full payload, chunked by the agent into
 *                   TraceRegionBatch frames. Function profiles go as
 *                   delta+varint arrays (they are smooth, so this is
 *                   the main wire-byte saving); doubles are bit-exact.
 *   encodeSummary() the scalar digest only (app, CPI, branches,
 *                   accuracy) — rides the BehaviorReport finale, and
 *                   is what survives spill-and-summarize degradation.
 */
#ifndef EXIST_CLUSTER_SESSION_PAYLOAD_H
#define EXIST_CLUSTER_SESSION_PAYLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/testbed.h"

namespace exist {

struct SessionPayload {
    std::string app;  ///< the traced (target) application
    double target_cpi = 0.0;
    std::uint64_t decoded_branches = 0;
    double accuracy_wall = 0.0;
    std::vector<std::uint64_t> decoded_function_insns;
    std::vector<std::uint64_t> decoded_function_entries;
    std::vector<std::uint64_t> truth_function_insns;
    std::vector<CollectedTrace> raw_traces;

    /** Move the collection-borne fields out of a finished session's
     *  result, leaving them zeroed there (what a lost stream leaves). */
    static SessionPayload take(ExperimentResult *result,
                               const std::string &app);

    std::vector<std::uint8_t> encode() const;
    std::string encodeSummary() const;

    static bool decode(const std::uint8_t *data, std::size_t size,
                       SessionPayload *out);
    static bool decodeSummary(const std::string &summary,
                              SessionPayload *out);

    /** Move the full payload back into a session result. */
    void applyTo(ExperimentResult *result) &&;
    /** Write the scalar digest only (degraded streams): profiles and
     *  raw traces stay empty. */
    void applySummaryTo(ExperimentResult *result) const;
};

}  // namespace exist

#endif  // EXIST_CLUSTER_SESSION_PAYLOAD_H
