#include "cluster/storage.h"

#include <algorithm>

#include "util/logging.h"

namespace exist {

void
ObjectStore::put(const std::string &key, std::vector<std::uint8_t> bytes)
{
    MutexLock lk(mu_);
    auto it = objects_.find(key);
    if (it != objects_.end()) {
        total_bytes_ -= it->second.size();
        it->second = std::move(bytes);
        total_bytes_ += it->second.size();
    } else {
        total_bytes_ += bytes.size();
        objects_.emplace(key, std::move(bytes));
    }
}

bool
ObjectStore::exists(const std::string &key) const
{
    MutexLock lk(mu_);
    return objects_.count(key) > 0;
}

const std::vector<std::uint8_t> &
ObjectStore::get(const std::string &key) const
{
    MutexLock lk(mu_);
    auto it = objects_.find(key);
    EXIST_ASSERT(it != objects_.end(), "no such object '%s'",
                 key.c_str());
    return it->second;
}

std::vector<std::string>
ObjectStore::listPrefix(const std::string &prefix) const
{
    MutexLock lk(mu_);
    std::vector<std::string> keys;
    for (auto it = objects_.lower_bound(prefix); it != objects_.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        keys.push_back(it->first);
    }
    return keys;
}

std::uint64_t
ObjectStore::totalBytes() const
{
    MutexLock lk(mu_);
    return total_bytes_;
}

std::size_t
ObjectStore::objectCount() const
{
    MutexLock lk(mu_);
    return objects_.size();
}

std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
ObjectStore::allObjects() const
{
    MutexLock lk(mu_);
    return {objects_.begin(), objects_.end()};
}

namespace {

/** The one row order: (request_id, node). */
bool
rowBefore(const TraceRow &a, const TraceRow &b)
{
    if (a.request_id != b.request_id)
        return a.request_id < b.request_id;
    return a.node < b.node;
}

}  // namespace

void
OdpsTable::insert(TraceRow row)
{
    MutexLock lk(mu_);
    // upper_bound keeps equal keys in insertion order. Commits arrive
    // in ascending request id, so this is almost always an append.
    auto at = std::upper_bound(rows_.begin(), rows_.end(), row, rowBefore);
    rows_.insert(at, std::move(row));
}

std::vector<const TraceRow *>
OdpsTable::queryApp(const std::string &app) const
{
    MutexLock lk(mu_);
    std::vector<const TraceRow *> out;
    for (const auto &r : rows_)
        if (r.app == app)
            out.push_back(&r);
    return out;
}

std::vector<const TraceRow *>
OdpsTable::queryRequest(std::uint64_t request_id) const
{
    MutexLock lk(mu_);
    auto it = std::lower_bound(rows_.begin(), rows_.end(), request_id,
                               [](const TraceRow &r, std::uint64_t id) {
                                   return r.request_id < id;
                               });
    std::vector<const TraceRow *> out;
    for (; it != rows_.end() && it->request_id == request_id; ++it)
        out.push_back(&*it);
    return out;
}

std::size_t
OdpsTable::rowCount() const
{
    MutexLock lk(mu_);
    return rows_.size();
}

std::vector<TraceRow>
OdpsTable::allRows() const
{
    MutexLock lk(mu_);
    return rows_;
}

}  // namespace exist
