/**
 * @file
 * Table of Physical Addresses (ToPA) output model: a chain of
 * variable-sized memory regions that the tracer fills in order. The last
 * entry either carries the STOP bit — tracing halts and further packets
 * are dropped (EXIST's "compulsory tracing", paper §3.3) — or links back
 * to the first region (ring semantics, the conventional alternative).
 * Entries may carry an INT bit that raises a PMI when the region fills,
 * which is how the perf-based NHT baseline drains its aux buffer.
 */
#ifndef EXIST_HWTRACE_TOPA_H
#define EXIST_HWTRACE_TOPA_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/types.h"

namespace exist {

/** One ToPA table entry describing an output region. */
struct TopaEntry {
    std::uint64_t size_bytes = 0;  ///< model bytes (real / kTraceByteScale)
    bool stop = false;             ///< STOP bit: halt tracing when filled
    bool intr = false;             ///< INT bit: raise PMI when filled
};

/** Outcome of appending bytes to the output. */
struct TopaWriteResult {
    std::uint64_t accepted = 0;  ///< bytes stored
    std::uint64_t dropped = 0;   ///< bytes lost (stopped)
    int pmis_fired = 0;          ///< regions with INT filled by this write
    bool stopped_now = false;    ///< this write hit a STOP region end
};

/**
 * The output buffer backing a ToPA chain. Content is stored linearly in
 * the order regions appear in the table; ring wrap resets the cursor.
 * The store is allocated uninitialized, as hardware output memory is:
 * only bytes the tracer wrote are ever read back.
 */
class TopaBuffer
{
  public:
    /** Install a new table. Only legal when tracing is disabled; the
     *  tracer enforces that and calls reset() here. */
    void configure(std::vector<TopaEntry> entries, bool ring);

    /** Clear fill state, keeping the configured table. */
    void reset();

    /** Append packet bytes. */
    TopaWriteResult write(const std::uint8_t *data, std::uint64_t n);

    /** Total capacity in model bytes. */
    std::uint64_t capacity() const { return capacity_; }

    bool stopped() const { return stopped_; }
    bool configured() const { return !entries_.empty(); }

    std::uint64_t bytesAccepted() const { return bytes_accepted_; }
    std::uint64_t bytesDropped() const { return bytes_dropped_; }
    /** Cumulative ring wraps, surviving drains (a statistic). */
    std::uint64_t wraps() const { return wraps_base_ + wraps_; }
    /** Whether the store wrapped since the last reset/drain — i.e.
     *  whether the content needs oldest-first reordering. */
    bool hasWrapped() const { return wraps_ != 0; }

    /**
     * The raw store, capacity() bytes in region order. Until the
     * first wrap or drain, the content is its first bytesAccepted()
     * bytes, and the rest was never written; copyTo() handles every
     * layout.
     */
    std::span<const std::uint8_t> data() const
    {
        return {store_.get(), capacity_};
    }

    /**
     * Append the content to `out`, oldest byte first (for a ring that
     * wrapped, the last capacity() bytes written), leaving the fill
     * state alone. Returns the bytes appended.
     */
    std::uint64_t copyTo(std::vector<std::uint8_t> &out) const;

    /**
     * copyTo(), then reset the fill state. Used by the NHT baseline's
     * PMI handler (perf copying the aux buffer out).
     */
    std::uint64_t drainTo(std::vector<std::uint8_t> &out);

  private:
    std::vector<TopaEntry> entries_;
    bool ring_ = false;
    std::uint64_t capacity_ = 0;

    std::unique_ptr<std::uint8_t[]> store_;
    std::uint64_t cursor_ = 0;        ///< next write offset in store_
    std::size_t region_ = 0;          ///< current table entry
    std::uint64_t region_fill_ = 0;   ///< bytes into current region
    bool stopped_ = false;
    std::uint64_t bytes_accepted_ = 0;
    std::uint64_t bytes_dropped_ = 0;
    std::uint64_t wraps_ = 0;         ///< wraps since last reset/drain
    std::uint64_t wraps_base_ = 0;    ///< wraps drained away (cumulative)
};

}  // namespace exist

#endif  // EXIST_HWTRACE_TOPA_H
