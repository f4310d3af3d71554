/**
 * @file
 * Byte-stream to packet-stream parser for the modelled trace format.
 * Mirrors libipt's role: it maintains the last-IP decompression state
 * and can resynchronise at PSB boundaries after corruption or a ring
 * wrap that landed mid-packet.
 */
#ifndef EXIST_DECODE_PACKET_PARSER_H
#define EXIST_DECODE_PACKET_PARSER_H

#include <cstddef>
#include <cstdint>

#include "hwtrace/packet.h"

namespace exist {

/** A parsed packet. A kTnt6 Packet may carry the outcomes of several
 *  consecutive TNT bytes (up to 60 bits, oldest in bit 0): adjacent
 *  one-byte TNT packets are batched into one Packet so the hot decode
 *  loop pays its per-packet dispatch once per run, not once per six
 *  branches. Bit order is unchanged, so consumers that iterate
 *  tnt_count bits see exactly the unbatched stream. */
struct Packet {
    PacketOp op = PacketOp::kPad;
    std::uint64_t value = 0;     ///< IP / CR3 / TSC / CYC delta
    std::uint64_t tnt_bits = 0;  ///< for TNT packets
    std::uint8_t tnt_count = 0;
};

/** Parser over a contiguous trace byte buffer. */
class PacketParser
{
  public:
    PacketParser(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    /** Parse the next packet; false at end of stream. */
    bool next(Packet &out);

    /** Skip forward to just after the next PSB; false if none left. */
    bool resyncToPsb();

    std::size_t offset() const { return pos_; }
    std::size_t resyncCount() const { return resyncs_; }
    std::size_t truncated() const { return truncated_; }

  private:
    bool have(std::size_t n) const { return pos_ + n <= size_; }
    std::uint64_t readLe(std::size_t n);

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::uint64_t last_ip_ = 0;
    std::size_t resyncs_ = 0;
    std::size_t truncated_ = 0;
};

}  // namespace exist

#endif  // EXIST_DECODE_PACKET_PARSER_H
