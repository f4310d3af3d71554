#include "durability/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "durability/crash_point.h"
#include "util/logging.h"

namespace fs = std::filesystem;

namespace exist::durability {

namespace {

/** magic + version + body_len + checksum. */
constexpr std::size_t kSnapHeaderBytes = 4 + 1 + 8 + 8;
constexpr std::size_t kBodyLenAt = 4 + 1;
/** Room for everything in a body but its objects: the meta, requests,
 *  reports, ledger and rows (138 KB beside 34 MB of objects in the
 *  last of a reconcile epoch's six images). */
constexpr std::size_t kSnapSlackBytes = 1u << 20;

void
putDump(net::ByteWriter &w, const ControlStateDump &dump)
{
    w.putVarint(dump.next_id);
    w.putVarint(dump.requests.size());
    for (const auto &[id, req] : dump.requests) {
        w.putVarint(id);
        w.putU8(static_cast<std::uint8_t>(req.phase));
        w.putString(req.toManifest());
    }
    w.putVarint(dump.reports.size());
    for (const auto &[id, report] : dump.reports) {
        w.putVarint(id);
        putReport(w, report);
    }
    w.putVarint(dump.ledger.apps().size());
    for (const auto &[app, cov] : dump.ledger.apps()) {
        w.putString(app);
        w.putVarint(cov.requests);
        w.putVarint(cov.sessions);
        w.putVarint(cov.trace_bytes);
        w.putVarint(cov.last_period);
    }
    w.putVarint(dump.ledger.totalRequests());
    w.putVarint(dump.ledger.totalSessions());
    putObjects(w, dump.objects);
    w.putVarint(dump.rows.size());
    for (const TraceRow &row : dump.rows)
        putRow(w, row);
}

bool
getDump(net::ByteReader &r, ControlStateDump *out)
{
    out->next_id = r.getVarint();
    std::uint64_t nreq = r.getVarint();
    if (!r.ok() || nreq > r.remaining())
        return false;
    for (std::uint64_t i = 0; i < nreq && r.ok(); ++i) {
        std::uint64_t id = r.getVarint();
        std::uint8_t phase = r.getU8();
        std::string manifest = r.getString();
        if (!r.ok() ||
            phase > static_cast<std::uint8_t>(RequestPhase::kFailed))
            return false;
        TraceRequest req;
        std::string bad;
        if (!TraceRequest::parse(manifest, &req, &bad))
            return false;
        req.id = id;
        req.phase = static_cast<RequestPhase>(phase);
        out->requests.emplace(id, std::move(req));
    }
    std::uint64_t nrep = r.getVarint();
    if (!r.ok() || nrep > r.remaining())
        return false;
    for (std::uint64_t i = 0; i < nrep && r.ok(); ++i) {
        std::uint64_t id = r.getVarint();
        TraceReport report;
        if (!getReport(r, &report))
            return false;
        out->reports.emplace(id, std::move(report));
    }
    std::uint64_t napps = r.getVarint();
    if (!r.ok() || napps > r.remaining())
        return false;
    std::map<std::string, CoverageLedger::AppCoverage> apps;
    for (std::uint64_t i = 0; i < napps && r.ok(); ++i) {
        std::string app = r.getString();
        CoverageLedger::AppCoverage cov;
        cov.requests = r.getVarint();
        cov.sessions = r.getVarint();
        cov.trace_bytes = r.getVarint();
        cov.last_period = r.getVarint();
        apps.emplace(std::move(app), cov);
    }
    std::uint64_t total_requests = r.getVarint();
    std::uint64_t total_sessions = r.getVarint();
    if (!r.ok())
        return false;
    out->ledger.restore(std::move(apps), total_requests,
                        total_sessions);
    if (!getObjects(r, &out->objects))
        return false;
    std::uint64_t nrows = r.getVarint();
    if (!r.ok() || nrows > r.remaining())
        return false;
    for (std::uint64_t i = 0; i < nrows && r.ok(); ++i) {
        TraceRow row;
        if (!getRow(r, &row))
            return false;
        out->rows.push_back(std::move(row));
    }
    return r.ok();
}

}  // namespace

bool
writeSnapshot(const std::string &dir, const SnapshotState &state,
              std::string *error)
{
    // One buffer, sized by the object bytes that dominate it: the
    // header, the body encoded in place, then body_len and the
    // checksum patched.
    std::vector<std::uint8_t> image;
    image.reserve(kSnapHeaderBytes + kSnapSlackBytes +
                  objectBytes(state.dump.objects));
    net::ByteWriter w(&image);
    w.putU32(kSnapMagic);
    w.putU8(kSnapVersion);
    w.putU64(0);  // body_len
    w.putU64(0);  // checksum
    putMeta(w, state.meta);
    w.putVarint(state.barrier_lsn);
    putDump(w, state.dump);
    w.patchU64(kBodyLenAt, image.size() - kSnapHeaderBytes);
    w.patchU64(kBodyLenAt + 8, w.checksumFrom(kSnapHeaderBytes));

    std::string final_path =
        (fs::path(dir) / lsnFileName("snap-", state.barrier_lsn, ".img"))
            .string();
    std::string tmp_path = final_path + ".tmp";
    std::FILE *f = std::fopen(tmp_path.c_str(), "wb");
    if (f == nullptr) {
        *error = "cannot open " + tmp_path;
        return false;
    }
    std::size_t n = std::fwrite(image.data(), 1, image.size(), f);
    bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (n != image.size() || !flushed) {
        *error = "short write to " + tmp_path;
        return false;
    }

    // The image is complete but not yet visible: a crash here leaves
    // only the ignored .tmp, and recovery uses the previous snapshot.
    crashpoint::hit("mid-snapshot");

    std::error_code ec;
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
        *error = "rename failed: " + ec.message();
        return false;
    }
    return true;
}

std::vector<std::pair<std::uint64_t, std::string>>
listSnapshots(const std::string &dir)
{
    std::vector<std::pair<std::uint64_t, std::string>> found;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        std::uint64_t lsn = 0;
        std::string name = entry.path().filename().string();
        if (parseLsnFileName(name, "snap-", ".img", &lsn))
            found.emplace_back(lsn, entry.path().string());
    }
    std::sort(found.begin(), found.end());
    return found;
}

std::size_t
pruneSnapshots(const std::string &dir, std::size_t keep)
{
    auto snaps = listSnapshots(dir);
    std::size_t removed = 0;
    while (snaps.size() > keep) {
        std::error_code ec;
        fs::remove(snaps.front().second, ec);
        if (!ec)
            removed += 1;
        snaps.erase(snaps.begin());
    }
    return removed;
}

SnapshotLoad
loadNewestSnapshot(const std::string &dir)
{
    SnapshotLoad load;
    auto snaps = listSnapshots(dir);
    load.found = !snaps.empty();
    for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
        const std::string &path = it->second;
        std::vector<std::uint8_t> image;
        if (!readFile(path, &image)) {
            load.error += path + ": unreadable; ";
            continue;
        }
        net::ByteReader r(image.data(), image.size());
        std::uint32_t magic = r.getU32();
        std::uint8_t version = r.getU8();
        std::uint64_t body_len = r.getU64();
        std::uint64_t sum = r.getU64();
        if (!r.ok() || magic != kSnapMagic || version != kSnapVersion ||
            body_len != r.remaining()) {
            load.error += path + ": bad header; ";
            continue;
        }
        const std::uint8_t *body = r.getBytes(body_len);
        if (body == nullptr || net::checksum64(body, body_len) != sum) {
            load.error += path + ": checksum mismatch; ";
            continue;
        }
        SnapshotState state;
        net::ByteReader br(body, body_len);
        if (!getMeta(br, &state.meta)) {
            load.error += path + ": bad meta; ";
            continue;
        }
        state.barrier_lsn = br.getVarint();
        if (!getDump(br, &state.dump) || !br.ok() ||
            br.remaining() != 0 || state.barrier_lsn != it->first) {
            load.error += path + ": bad body; ";
            continue;
        }
        load.ok = true;
        load.path = path;
        load.state = std::move(state);
        return load;
    }
    return load;
}

}  // namespace exist::durability
