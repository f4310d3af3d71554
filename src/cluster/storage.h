/**
 * @file
 * Data-path backends of the cluster deployment (paper §4): traced
 * packet data is uploaded to an unstructured object store (OSS) rather
 * than kept on the node; the software decoder reads trace objects and
 * binaries from there and writes structured results to an ODPS-style
 * table store that users query for analysis.
 *
 * Neither store is internally synchronized: instances are owned, one
 * per stripe, by the striped wrappers (cluster/shard/striped_store.h)
 * whose annotated stripe locks are their only guard — the
 * EXIST_GUARDED_BY on those stripe members is what makes Clang's
 * thread-safety analysis check every concurrent access path to this
 * file's classes.
 */
#ifndef EXIST_CLUSTER_STORAGE_H
#define EXIST_CLUSTER_STORAGE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/types.h"

namespace exist {

/** Unstructured object storage (OSS mock). */
class ObjectStore
{
  public:
    void put(const std::string &key, std::vector<std::uint8_t> bytes);
    bool exists(const std::string &key) const;
    const std::vector<std::uint8_t> &get(const std::string &key) const;
    std::vector<std::string> listPrefix(const std::string &prefix) const;
    std::uint64_t totalBytes() const { return total_bytes_; }
    std::size_t objectCount() const { return objects_.size(); }

    /** Full key-sorted view (durability snapshots serialize this). */
    const std::map<std::string, std::vector<std::uint8_t>> &
    objects() const
    {
        return objects_;
    }

  private:
    std::map<std::string, std::vector<std::uint8_t>> objects_;
    std::uint64_t total_bytes_ = 0;
};

/** One decoded-trace row in the structured store. */
struct TraceRow {
    std::string app;
    NodeId node = kInvalidId;
    std::uint64_t request_id = 0;
    Cycles period = 0;
    std::uint64_t decoded_branches = 0;
    double accuracy = 0.0;
    std::vector<std::uint64_t> function_insns;
    std::vector<std::uint64_t> function_entries;

    bool operator==(const TraceRow &) const = default;
};

/** Structured result storage (ODPS mock) with query-by-app. */
class OdpsTable
{
  public:
    void insert(TraceRow row);
    std::vector<const TraceRow *> queryApp(const std::string &app) const;
    std::vector<const TraceRow *>
    queryRequest(std::uint64_t request_id) const;
    std::size_t rowCount() const { return rows_.size(); }

    /** Full insertion-order view (durability snapshots serialize
     *  this; restoring by re-insert preserves the order). */
    const std::vector<TraceRow> &rows() const { return rows_; }

  private:
    std::vector<TraceRow> rows_;
};

}  // namespace exist

#endif  // EXIST_CLUSTER_STORAGE_H
