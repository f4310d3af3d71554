/**
 * @file
 * Data-path backends of the cluster deployment (paper §4): traced
 * packet data is uploaded to an unstructured object store (OSS) rather
 * than kept on the node; the software decoder reads trace objects and
 * binaries from there and writes structured results to an ODPS-style
 * table store that users query for analysis.
 *
 * The control plane writes both stores only from its sequenced commit
 * actions (and from recovery's restore before reconcile), so writes
 * arrive one at a time in global request-id order. Readers may poll
 * from any thread, so each store owns one kStore mutex that every
 * access takes. A reference or pointer a read returns stays valid
 * until the next write of the same key (OSS) or the next insert
 * (ODPS).
 */
#ifndef EXIST_CLUSTER_STORAGE_H
#define EXIST_CLUSTER_STORAGE_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"
#include "util/types.h"

namespace exist {

/** Unstructured object storage (OSS mock). */
class ObjectStore
{
  public:
    void put(const std::string &key, std::vector<std::uint8_t> bytes)
        EXIST_EXCLUDES(mu_);
    bool exists(const std::string &key) const EXIST_EXCLUDES(mu_);
    const std::vector<std::uint8_t> &get(const std::string &key) const
        EXIST_EXCLUDES(mu_);
    /** Matching keys, sorted. */
    std::vector<std::string> listPrefix(const std::string &prefix) const
        EXIST_EXCLUDES(mu_);
    std::uint64_t totalBytes() const EXIST_EXCLUDES(mu_);
    std::size_t objectCount() const EXIST_EXCLUDES(mu_);

    /** Every (key, bytes), sorted by key: the copy durability
     *  snapshots serialize. */
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
    allObjects() const EXIST_EXCLUDES(mu_);

  private:
    mutable Mutex mu_{lockorder::LockRank::kStore, "cluster.oss"};
    std::map<std::string, std::vector<std::uint8_t>> objects_
        EXIST_GUARDED_BY(mu_);
    std::uint64_t total_bytes_ EXIST_GUARDED_BY(mu_) = 0;
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

/**
 * Structured result storage (ODPS mock). Rows are kept in
 * (request_id, node) order, rows with equal keys in insertion order,
 * so every view below is the same whatever order the rows arrived in.
 */
class OdpsTable
{
  public:
    void insert(TraceRow row) EXIST_EXCLUDES(mu_);
    /** Rows of one app / request, in (request_id, node) order. */
    std::vector<const TraceRow *> queryApp(const std::string &app) const
        EXIST_EXCLUDES(mu_);
    std::vector<const TraceRow *>
    queryRequest(std::uint64_t request_id) const EXIST_EXCLUDES(mu_);
    std::size_t rowCount() const EXIST_EXCLUDES(mu_);

    /** Every row in (request_id, node) order: the copy durability
     *  snapshots serialize. */
    std::vector<TraceRow> allRows() const EXIST_EXCLUDES(mu_);

  private:
    mutable Mutex mu_{lockorder::LockRank::kStore, "cluster.odps"};
    std::vector<TraceRow> rows_ EXIST_GUARDED_BY(mu_);
};

}  // namespace exist

#endif  // EXIST_CLUSTER_STORAGE_H
