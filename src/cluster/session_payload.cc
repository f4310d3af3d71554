#include "cluster/session_payload.h"

#include <utility>

#include "net/wire.h"

namespace exist {

namespace {

/** Scalar digest section shared by encode() and encodeSummary(). */
void
putScalars(net::ByteWriter &w, const SessionPayload &p)
{
    w.putString(p.app);
    w.putDouble(p.target_cpi);
    w.putVarint(p.decoded_branches);
    w.putDouble(p.accuracy_wall);
}

bool
getScalars(net::ByteReader &r, SessionPayload *p)
{
    p->app = r.getString();
    p->target_cpi = r.getDouble();
    p->decoded_branches = r.getVarint();
    p->accuracy_wall = r.getDouble();
    return r.ok();
}

}  // namespace

SessionPayload
SessionPayload::take(ExperimentResult *result, const std::string &app)
{
    SessionPayload p;
    p.app = app;
    if (const AppResult *target = result->find(app))
        p.target_cpi = target->cpi;
    for (AppResult &a : result->apps)
        if (a.name == app)
            a.cpi = 0.0;
    p.decoded_branches = std::exchange(result->decoded_branches, 0);
    p.accuracy_wall = std::exchange(result->accuracy_wall, 0.0);
    p.decoded_function_insns =
        std::exchange(result->decoded_function_insns, {});
    p.decoded_function_entries =
        std::exchange(result->decoded_function_entries, {});
    p.truth_function_insns =
        std::exchange(result->truth_function_insns, {});
    p.raw_traces = std::exchange(result->raw_traces, {});
    return p;
}

std::vector<std::uint8_t>
SessionPayload::encode() const
{
    std::vector<std::uint8_t> out;
    net::ByteWriter w(&out);
    putScalars(w, *this);
    w.putDeltaArray(decoded_function_insns);
    w.putDeltaArray(decoded_function_entries);
    w.putDeltaArray(truth_function_insns);
    w.putVarint(raw_traces.size());
    for (const CollectedTrace &ct : raw_traces) {
        w.putSVarint(ct.core);
        w.putSVarint(ct.thread);
        w.putVarint(ct.bytes.size());
        w.putBytes(ct.bytes.data(), ct.bytes.size());
    }
    return out;
}

std::string
SessionPayload::encodeSummary() const
{
    std::vector<std::uint8_t> out;
    net::ByteWriter w(&out);
    putScalars(w, *this);
    return std::string(out.begin(), out.end());
}

bool
SessionPayload::decode(const std::uint8_t *data, std::size_t size,
                       SessionPayload *out)
{
    *out = SessionPayload{};
    net::ByteReader r(data, size);
    if (!getScalars(r, out))
        return false;
    out->decoded_function_insns = r.getDeltaArray();
    out->decoded_function_entries = r.getDeltaArray();
    out->truth_function_insns = r.getDeltaArray();
    std::uint64_t n = r.getVarint();
    if (!r.ok() || n > r.remaining())
        return false;
    out->raw_traces.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        CollectedTrace ct;
        ct.core = static_cast<CoreId>(r.getSVarint());
        ct.thread = static_cast<ThreadId>(r.getSVarint());
        std::uint64_t len = r.getVarint();
        const std::uint8_t *p = r.getBytes(len);
        if (p == nullptr)
            return false;
        ct.bytes.assign(p, p + len);
        out->raw_traces.push_back(std::move(ct));
    }
    return r.ok() && r.remaining() == 0;
}

bool
SessionPayload::decodeSummary(const std::string &summary,
                              SessionPayload *out)
{
    *out = SessionPayload{};
    net::ByteReader r(
        reinterpret_cast<const std::uint8_t *>(summary.data()),
        summary.size());
    return getScalars(r, out) && r.remaining() == 0;
}

void
SessionPayload::applySummaryTo(ExperimentResult *result) const
{
    result->decoded_branches = decoded_branches;
    result->accuracy_wall = accuracy_wall;
    bool found = false;
    for (AppResult &a : result->apps) {
        if (a.name == app) {
            a.cpi = target_cpi;
            found = true;
        }
    }
    if (!found) {
        AppResult a;
        a.name = app;
        a.cpi = target_cpi;
        result->apps.push_back(std::move(a));
    }
}

void
SessionPayload::applyTo(ExperimentResult *result) &&
{
    applySummaryTo(result);
    result->decoded_function_insns = std::move(decoded_function_insns);
    result->decoded_function_entries =
        std::move(decoded_function_entries);
    result->truth_function_insns = std::move(truth_function_insns);
    result->raw_traces = std::move(raw_traces);
}

}  // namespace exist
