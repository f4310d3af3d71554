#include "hwtrace/topa.h"

#include <cstring>

#include "util/logging.h"

namespace exist {

void
TopaBuffer::configure(std::vector<TopaEntry> entries, bool ring)
{
    EXIST_ASSERT(!entries.empty(), "empty ToPA table");
    entries_ = std::move(entries);
    ring_ = ring;
    capacity_ = 0;
    for (const auto &e : entries_) {
        EXIST_ASSERT(e.size_bytes > 0, "zero-sized ToPA region");
        capacity_ += e.size_bytes;
    }
    store_ = std::make_unique_for_overwrite<std::uint8_t[]>(capacity_);
    reset();
}

void
TopaBuffer::reset()
{
    cursor_ = 0;
    region_ = 0;
    region_fill_ = 0;
    stopped_ = false;
    bytes_accepted_ = 0;
    bytes_dropped_ = 0;
    wraps_ = 0;
    wraps_base_ = 0;
}

TopaWriteResult
TopaBuffer::write(const std::uint8_t *data, std::uint64_t n)
{
    TopaWriteResult res;
    EXIST_ASSERT(configured(), "write to unconfigured ToPA");

    while (n > 0) {
        if (stopped_) {
            res.dropped += n;
            bytes_dropped_ += n;
            return res;
        }
        const TopaEntry &e = entries_[region_];
        std::uint64_t room = e.size_bytes - region_fill_;
        std::uint64_t take = room < n ? room : n;
        std::memcpy(store_.get() + cursor_, data, take);
        cursor_ += take;
        region_fill_ += take;
        bytes_accepted_ += take;
        res.accepted += take;
        data += take;
        n -= take;

        if (region_fill_ == e.size_bytes) {
            if (e.intr)
                ++res.pmis_fired;
            if (e.stop) {
                stopped_ = true;
                res.stopped_now = true;
            } else if (region_ + 1 < entries_.size()) {
                ++region_;
                region_fill_ = 0;
            } else if (ring_) {
                region_ = 0;
                region_fill_ = 0;
                cursor_ = 0;
                ++wraps_;
            } else {
                // Table exhausted without STOP and not a ring: treat as
                // stop (hardware would raise ToPA PMI + error).
                stopped_ = true;
                res.stopped_now = true;
            }
        }
    }
    return res;
}

std::uint64_t
TopaBuffer::copyTo(std::vector<std::uint8_t> &out) const
{
    const std::uint8_t *store = store_.get();
    // Layout depends on wraps *since the previous drain* (wraps_, the
    // epoch counter), not the cumulative count: a buffer that wrapped
    // before an earlier drain but not since holds only cursor_ fresh
    // bytes, and replaying the full capacity here would hand the
    // consumer a stale copy of already-drained data.
    if (wraps_ == 0) {
        out.insert(out.end(), store, store + cursor_);
        return cursor_;
    }
    // Oldest data starts at cursor_ (already overwritten before it).
    out.insert(out.end(), store + cursor_, store + capacity_);
    out.insert(out.end(), store, store + cursor_);
    return capacity_;
}

std::uint64_t
TopaBuffer::drainTo(std::vector<std::uint8_t> &out)
{
    std::uint64_t n = copyTo(out);
    std::uint64_t accepted = bytes_accepted_;
    std::uint64_t dropped = bytes_dropped_;
    std::uint64_t wraps_total = wraps_base_ + wraps_;
    reset();
    // Preserve cumulative counters across drains.
    bytes_accepted_ = accepted;
    bytes_dropped_ = dropped;
    wraps_base_ = wraps_total;
    return n;
}

}  // namespace exist
