#include "durability/wal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <utility>

#include "obs/trace_plane.h"
#include "util/logging.h"

namespace fs = std::filesystem;

namespace exist::durability {

std::string
lsnFileName(const char *prefix, std::uint64_t lsn, const char *suffix)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%016llx%s", prefix,
                  static_cast<unsigned long long>(lsn), suffix);
    return buf;
}

bool
parseLsnFileName(const std::string &name, const char *prefix,
                 const char *suffix, std::uint64_t *lsn)
{
    std::size_t head = std::strlen(prefix);
    std::size_t tail = std::strlen(suffix);
    if (name.size() != head + 16 + tail || name.rfind(prefix, 0) != 0 ||
        name.compare(head + 16, tail, suffix) != 0)
        return false;
    std::uint64_t v = 0;
    for (std::size_t i = head; i < head + 16; ++i) {
        char c = name[i];
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else
            return false;
        v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    *lsn = v;
    return true;
}

bool
readFile(const std::string &path, std::vector<std::uint8_t> *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    out->clear();
    std::uint8_t buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out->insert(out->end(), buf, buf + n);
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

namespace {

std::string
segmentName(std::uint64_t start_lsn)
{
    return lsnFileName("wal-", start_lsn, ".seg");
}

bool
parseSegmentName(const std::string &name, std::uint64_t *lsn)
{
    return parseLsnFileName(name, "wal-", ".seg", lsn);
}

/** One segment, scanned to its first invalid byte. */
struct SegmentScan {
    bool header_ok = false;
    std::uint64_t start_lsn = 0;
    std::vector<WalRecord> records;
    bool clean_end = false;  ///< file ended exactly on a record edge
    /** Type byte of a record whose checksum holds but whose payload
     *  does not decode; the scan stopped there. */
    std::optional<std::uint8_t> undecodable;
    std::uint64_t bytes = 0;
};

SegmentScan
scanSegment(const std::string &path)
{
    SegmentScan scan;
    std::vector<std::uint8_t> data;
    if (!readFile(path, &data))
        return scan;
    scan.bytes = data.size();
    net::ByteReader r(data.data(), data.size());
    std::uint32_t magic = r.getU32();
    std::uint8_t version = r.getU8();
    std::uint64_t start = r.getU64();
    if (!r.ok() || magic != kWalMagic || version != kWalVersion)
        return scan;
    scan.header_ok = true;
    scan.start_lsn = start;
    for (;;) {
        if (r.remaining() == 0) {
            scan.clean_end = true;
            return scan;
        }
        std::uint32_t len = r.getU32();
        std::uint64_t sum = r.getU64();
        if (!r.ok() || len == 0 || len > kMaxRecordBytes)
            return scan;  // torn/corrupt framing
        const std::uint8_t *payload = r.getBytes(len);
        if (payload == nullptr)
            return scan;  // torn tail
        if (net::fnv1a64(payload, len) != sum)
            return scan;  // bit rot
        WalRecord rec;
        if (!decodeRecord(payload, len, &rec)) {
            // A torn write cannot pass the checksum: this record was
            // written whole by a binary that speaks another format.
            scan.undecodable = payload[0];
            return scan;
        }
        scan.records.push_back(std::move(rec));
    }
}

}  // namespace

const char *
recordTypeName(RecordType t)
{
    switch (t) {
      case RecordType::kMeta: return "meta";
      case RecordType::kAdmit: return "admit";
      case RecordType::kPlan: return "plan";
      case RecordType::kPublish: return "publish";
    }
    return "?";
}

void
putMeta(net::ByteWriter &w, const ClusterMeta &m)
{
    w.putU64(m.cluster_seed);
    w.putVarint(static_cast<std::uint64_t>(m.num_nodes));
    w.putVarint(static_cast<std::uint64_t>(m.cores_per_node));
    w.putVarint(static_cast<std::uint64_t>(m.shards));
    w.putVarint(m.snapshot_interval);
    w.putVarint(m.deployments.size());
    for (const auto &[app, replicas] : m.deployments) {
        w.putString(app);
        w.putVarint(static_cast<std::uint64_t>(replicas));
    }
}

bool
getMeta(net::ByteReader &r, ClusterMeta *out)
{
    out->cluster_seed = r.getU64();
    out->num_nodes = static_cast<int>(r.getVarint());
    out->cores_per_node = static_cast<int>(r.getVarint());
    out->shards = static_cast<int>(r.getVarint());
    out->snapshot_interval = r.getVarint();
    std::uint64_t n = r.getVarint();
    if (!r.ok() || n > r.remaining())
        return false;
    out->deployments.clear();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        std::string app = r.getString();
        int replicas = static_cast<int>(r.getVarint());
        out->deployments.emplace_back(std::move(app), replicas);
    }
    return r.ok();
}

void
putReport(net::ByteWriter &w, const TraceReport &report)
{
    w.putVarint(report.request_id);
    w.putString(report.app);
    w.putVarint(report.period);
    std::vector<std::uint64_t> nodes;
    nodes.reserve(report.traced_nodes.size());
    for (NodeId n : report.traced_nodes)
        nodes.push_back(static_cast<std::uint64_t>(n));
    w.putDeltaArray(nodes);
    w.putVarint(report.per_worker_accuracy.size());
    for (double a : report.per_worker_accuracy)
        w.putDouble(a);
    w.putDouble(report.merged_accuracy);
    w.putDeltaArray(report.merged_function_insns);
    w.putDeltaArray(report.merged_truth_function_insns);
    w.putVarint(report.total_trace_bytes);
    w.putDouble(report.mean_target_cpi);
}

bool
getReport(net::ByteReader &r, TraceReport *out)
{
    out->request_id = r.getVarint();
    out->app = r.getString();
    out->period = r.getVarint();
    std::vector<std::uint64_t> nodes = r.getDeltaArray();
    out->traced_nodes.clear();
    out->traced_nodes.reserve(nodes.size());
    for (std::uint64_t n : nodes)
        out->traced_nodes.push_back(static_cast<NodeId>(n));
    std::uint64_t accs = r.getVarint();
    if (!r.ok() || accs > r.remaining() / 8)
        return false;
    out->per_worker_accuracy.clear();
    for (std::uint64_t i = 0; i < accs && r.ok(); ++i)
        out->per_worker_accuracy.push_back(r.getDouble());
    out->merged_accuracy = r.getDouble();
    out->merged_function_insns = r.getDeltaArray();
    out->merged_truth_function_insns = r.getDeltaArray();
    out->total_trace_bytes = r.getVarint();
    out->mean_target_cpi = r.getDouble();
    return r.ok();
}

void
putRow(net::ByteWriter &w, const TraceRow &row)
{
    w.putString(row.app);
    w.putSVarint(row.node);
    w.putVarint(row.request_id);
    w.putVarint(row.period);
    w.putVarint(row.decoded_branches);
    w.putDouble(row.accuracy);
    w.putDeltaArray(row.function_insns);
    w.putDeltaArray(row.function_entries);
}

bool
getRow(net::ByteReader &r, TraceRow *out)
{
    out->app = r.getString();
    out->node = static_cast<NodeId>(r.getSVarint());
    out->request_id = r.getVarint();
    out->period = r.getVarint();
    out->decoded_branches = r.getVarint();
    out->accuracy = r.getDouble();
    out->function_insns = r.getDeltaArray();
    out->function_entries = r.getDeltaArray();
    return r.ok();
}

void
putEffects(net::ByteWriter &w, const PublishEffects &fx)
{
    putReport(w, fx.report);
    w.putVarint(fx.objects.size());
    for (const auto &[key, bytes] : fx.objects) {
        w.putString(key);
        w.putVarint(bytes.size());
        w.putBytes(bytes.data(), bytes.size());
    }
    w.putVarint(fx.rows.size());
    for (const TraceRow &row : fx.rows)
        putRow(w, row);
    w.putString(fx.ledger.app);
    w.putVarint(fx.ledger.sessions);
    w.putVarint(fx.ledger.period);
    w.putVarint(fx.ledger.trace_bytes);
}

bool
getEffects(net::ByteReader &r, PublishEffects *out)
{
    if (!getReport(r, &out->report))
        return false;
    std::uint64_t nobj = r.getVarint();
    if (!r.ok() || nobj > r.remaining())
        return false;
    out->objects.clear();
    for (std::uint64_t i = 0; i < nobj && r.ok(); ++i) {
        std::string key = r.getString();
        std::uint64_t len = r.getVarint();
        const std::uint8_t *p = r.getBytes(len);
        if (p == nullptr)
            return false;
        out->objects.emplace_back(
            std::move(key), std::vector<std::uint8_t>(p, p + len));
    }
    std::uint64_t nrows = r.getVarint();
    if (!r.ok() || nrows > r.remaining())
        return false;
    out->rows.clear();
    for (std::uint64_t i = 0; i < nrows && r.ok(); ++i) {
        TraceRow row;
        if (!getRow(r, &row))
            return false;
        out->rows.push_back(std::move(row));
    }
    out->ledger.app = r.getString();
    out->ledger.sessions = r.getVarint();
    out->ledger.period = r.getVarint();
    out->ledger.trace_bytes = r.getVarint();
    return r.ok();
}

std::vector<std::uint8_t>
encodeRecord(const WalRecord &rec)
{
    std::vector<std::uint8_t> out;
    net::ByteWriter w(&out);
    w.putU8(static_cast<std::uint8_t>(rec.type));
    w.putVarint(rec.lsn);
    switch (rec.type) {
      case RecordType::kMeta:
        putMeta(w, rec.meta);
        break;
      case RecordType::kAdmit:
        w.putVarint(rec.request_id);
        w.putString(rec.manifest);
        break;
      case RecordType::kPlan:
        w.putVarint(rec.request_id);
        w.putU64(rec.plan_seed);
        w.putU8(rec.outcome);
        break;
      case RecordType::kPublish:
        w.putVarint(rec.request_id);
        putEffects(w, rec.effects);
        break;
    }
    return out;
}

bool
decodeRecord(const std::uint8_t *data, std::size_t size, WalRecord *out)
{
    net::ByteReader r(data, size);
    out->type = static_cast<RecordType>(r.getU8());
    out->lsn = r.getVarint();
    switch (out->type) {
      case RecordType::kMeta:
        if (!getMeta(r, &out->meta))
            return false;
        break;
      case RecordType::kAdmit:
        out->request_id = r.getVarint();
        out->manifest = r.getString();
        break;
      case RecordType::kPlan:
        out->request_id = r.getVarint();
        out->plan_seed = r.getU64();
        out->outcome = r.getU8();
        break;
      case RecordType::kPublish:
        out->request_id = r.getVarint();
        if (!getEffects(r, &out->effects))
            return false;
        break;
      default:
        return false;  // no such type (4 is retired)
    }
    return r.ok();
}

Wal::Wal(Config cfg, metrics::Registry *registry)
    : cfg_(std::move(cfg)), registry_(registry)
{
    EXIST_ASSERT(!cfg_.dir.empty(), "wal dir must not be empty");
    std::error_code ec;
    fs::create_directories(cfg_.dir, ec);
    EXIST_ASSERT(!ec, "wal: cannot create dir %s: %s",
                 cfg_.dir.c_str(), ec.message().c_str());

    // Find the next LSN: the last segment's start + its valid record
    // count. A torn tail (or a header-less segment from a crash during
    // rotation) simply bounds the scan — appends land in a fresh
    // segment, never after possibly-torn bytes.
    std::vector<std::string> segments = listSegments(cfg_.dir);
    MutexLock lk(mu_);
    if (!segments.empty()) {
        const std::string &last = segments.back();
        SegmentScan scan = scanSegment(last);
        if (scan.header_ok) {
            next_lsn_ = scan.start_lsn + scan.records.size();
        } else {
            std::uint64_t name_lsn = 0;
            bool named = parseSegmentName(
                fs::path(last).filename().string(), &name_lsn);
            EXIST_ASSERT(named, "wal: unscannable segment %s",
                         last.c_str());
            next_lsn_ = name_lsn;
        }
    }
}

Wal::~Wal()
{
    MutexLock lk(mu_);
    if (file_ != nullptr)
        std::fclose(file_);
}

void
Wal::openSegment()
{
    if (file_ != nullptr)
        std::fclose(file_);
    std::string path =
        (fs::path(cfg_.dir) / segmentName(next_lsn_)).string();
    file_ = std::fopen(path.c_str(), "wb");
    EXIST_ASSERT(file_ != nullptr, "wal: cannot open %s", path.c_str());
    std::vector<std::uint8_t> header;
    net::ByteWriter w(&header);
    w.putU32(kWalMagic);
    w.putU8(kWalVersion);
    w.putU64(next_lsn_);
    std::size_t n = std::fwrite(header.data(), 1, header.size(), file_);
    EXIST_ASSERT(n == header.size(), "wal: short header write");
    segment_payload_ = 0;
    if (registry_ != nullptr)
        registry_->gauge("wal.segments").add(1);
}

std::uint64_t
Wal::append(WalRecord rec)
{
    MutexLock lk(mu_);
    rec.lsn = next_lsn_;
    // Covers encode + write + flush: the span length is the synchronous
    // durability tax every control-plane mutation pays.
    EXIST_SPAN("wal.append",
               obs::corrId(rec.lsn, static_cast<std::uint64_t>(rec.type)));
    std::vector<std::uint8_t> payload = encodeRecord(rec);
    EXIST_ASSERT(payload.size() <= kMaxRecordBytes,
                 "wal: oversized record (%zu bytes)", payload.size());
    if (file_ == nullptr || segment_payload_ >= cfg_.segment_bytes)
        openSegment();

    std::vector<std::uint8_t> frame;
    net::ByteWriter w(&frame);
    w.putU32(static_cast<std::uint32_t>(payload.size()));
    w.putU64(net::fnv1a64(payload.data(), payload.size()));
    w.putBytes(payload.data(), payload.size());
    std::size_t n = std::fwrite(frame.data(), 1, frame.size(), file_);
    EXIST_ASSERT(n == frame.size(), "wal: short record write");
    // Flush before acknowledging: the crash model is process death,
    // which loses stdio buffers but not what the kernel accepted.
    EXIST_ASSERT(std::fflush(file_) == 0, "wal: flush failed");

    segment_payload_ += frame.size();
    next_lsn_ += 1;
    appends_ += 1;
    bytes_ += frame.size();
    if (registry_ != nullptr) {
        registry_->counter("wal.appends").add();
        registry_->counter("wal.bytes").add(frame.size());
    }
    return rec.lsn;
}

std::uint64_t
Wal::nextLsn() const
{
    MutexLock lk(mu_);
    return next_lsn_;
}

std::size_t
Wal::truncateBefore(std::uint64_t lsn)
{
    MutexLock lk(mu_);
    std::vector<std::string> segments = listSegments(cfg_.dir);
    std::size_t removed = 0;
    // A segment is disposable when the NEXT segment starts at or below
    // the barrier: then every record it holds is < lsn. The last
    // (active) segment never qualifies.
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
        std::uint64_t next_start = 0;
        if (!parseSegmentName(
                fs::path(segments[i + 1]).filename().string(),
                &next_start))
            break;
        if (next_start > lsn)
            break;
        std::error_code ec;
        fs::remove(segments[i], ec);
        if (!ec)
            removed += 1;
    }
    if (registry_ != nullptr && removed > 0) {
        registry_->counter("wal.truncated_segments").add(removed);
        registry_->gauge("wal.segments")
            .add(-static_cast<std::int64_t>(removed));
    }
    return removed;
}

std::vector<std::string>
Wal::listSegments(const std::string &dir)
{
    std::vector<std::pair<std::uint64_t, std::string>> found;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        std::uint64_t lsn = 0;
        std::string name = entry.path().filename().string();
        if (parseSegmentName(name, &lsn))
            found.emplace_back(lsn, entry.path().string());
    }
    std::sort(found.begin(), found.end());
    std::vector<std::string> out;
    out.reserve(found.size());
    for (auto &[lsn, path] : found)
        out.push_back(std::move(path));
    return out;
}

Wal::ReplayResult
Wal::replay(const std::string &dir, std::uint64_t from_lsn)
{
    ReplayResult res;
    std::vector<std::string> segments = listSegments(dir);
    std::uint64_t expected = from_lsn;

    for (std::size_t i = 0; i < segments.size(); ++i) {
        bool last = i + 1 == segments.size();
        SegmentScan scan = scanSegment(segments[i]);
        res.bytes_read += scan.bytes;
        std::uint64_t name_lsn = 0;
        parseSegmentName(fs::path(segments[i]).filename().string(),
                         &name_lsn);
        if (!scan.header_ok) {
            // A header-less file is the crash-during-rotation layout —
            // tolerable only as the very tail of the log.
            if (last) {
                res.torn_tail = true;
                break;
            }
            res.error = "unreadable segment header mid-log: " +
                        segments[i];
            return res;
        }
        if (scan.start_lsn != name_lsn) {
            res.error = "segment name/header LSN mismatch: " +
                        segments[i];
            return res;
        }
        if (scan.start_lsn > expected) {
            res.error =
                "WAL gap: segment " + segments[i] + " starts at lsn " +
                std::to_string(scan.start_lsn) + ", expected " +
                std::to_string(expected);
            return res;
        }
        for (std::size_t k = 0; k < scan.records.size(); ++k) {
            WalRecord &rec = scan.records[k];
            if (rec.lsn != scan.start_lsn + k) {
                res.error = "non-contiguous record lsn in " +
                            segments[i];
                return res;
            }
            if (rec.lsn < expected)
                continue;  // below the barrier, or a duplicate
            res.records.push_back(std::move(rec));
            expected += 1;
        }
        if (scan.undecodable) {
            res.error = "wal record lsn " +
                        std::to_string(scan.start_lsn +
                                       scan.records.size()) +
                        " in " + segments[i] +
                        ": checksum holds but type " +
                        std::to_string(*scan.undecodable) +
                        " does not decode";
            return res;
        }
        if (!scan.clean_end) {
            if (last) {
                res.torn_tail = true;
                break;
            }
            // Torn mid-log is the reopen-after-crash layout only if
            // the next segment resumes where the valid prefix ended.
            std::uint64_t next_start = 0;
            parseSegmentName(
                fs::path(segments[i + 1]).filename().string(),
                &next_start);
            if (next_start > expected) {
                res.error = "records lost after torn record in " +
                            segments[i];
                return res;
            }
        }
    }

    res.ok = true;
    res.next_lsn = expected;
    return res;
}

}  // namespace exist::durability
