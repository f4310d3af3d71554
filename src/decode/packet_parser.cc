#include "decode/packet_parser.h"

namespace exist {

std::uint64_t
PacketParser::readLe(std::size_t n)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += n;
    return v;
}

bool
PacketParser::resyncToPsb()
{
    // Look for the full 16-byte PSB pattern.
    while (pos_ + 2 * kPsbRepeat <= size_) {
        bool match = true;
        for (int i = 0; i < kPsbRepeat && match; ++i) {
            match = data_[pos_ + 2 * i] ==
                        static_cast<std::uint8_t>(PacketOp::kExt) &&
                    data_[pos_ + 2 * i + 1] == kExtPsb;
        }
        if (match) {
            pos_ += 2 * kPsbRepeat;
            ++resyncs_;
            last_ip_ = 0;
            return true;
        }
        ++pos_;
    }
    pos_ = size_;
    return false;
}

bool
PacketParser::next(Packet &out)
{
    while (pos_ < size_) {
        const std::size_t start = pos_;
        // A packet cut off by the end of the buffer is recorded as a
        // truncated tail and ends the stream.
        auto truncatedTail = [&]() {
            truncated_ = size_ - start;
            pos_ = size_;
            return false;
        };
        std::uint8_t b = data_[pos_];

        if (b & 0x80) {  // kTnt6: 0b10xxxxxx
            // Batch the whole run of adjacent TNT bytes (the dominant
            // byte in a loop-heavy trace) into one Packet: the bits
            // land in the queue in the same order either way, and the
            // caller's dispatch cost drops from per-6-bits to per-run.
            std::uint64_t bits = b & 0x3f;
            unsigned n = 6;
            ++pos_;
            while (n <= 54 && pos_ < size_ && (data_[pos_] & 0x80)) {
                bits |= static_cast<std::uint64_t>(data_[pos_] & 0x3f)
                        << n;
                n += 6;
                ++pos_;
            }
            out.op = PacketOp::kTnt6;
            out.tnt_bits = bits;
            out.tnt_count = static_cast<std::uint8_t>(n);
            return true;
        }

        switch (static_cast<PacketOp>(b)) {
          case PacketOp::kPad:
            ++pos_;
            continue;
          case PacketOp::kTntPartial: {
            if (!have(2))
                return truncatedTail();
            std::uint8_t p = data_[pos_ + 1];
            pos_ += 2;
            out.op = PacketOp::kTnt6;
            out.tnt_count = p >> 5;
            out.tnt_bits = p & 0x1f;
            return true;
          }
          case PacketOp::kExt: {
            if (!have(2))
                return truncatedTail();
            std::uint8_t sub = data_[pos_ + 1];
            if (sub == kExtPsb) {
                // Consume the full PSB run.
                std::size_t run = 0;
                while (have(2 * (run + 1)) &&
                       data_[pos_ + 2 * run] ==
                           static_cast<std::uint8_t>(PacketOp::kExt) &&
                       data_[pos_ + 2 * run + 1] == kExtPsb) {
                    ++run;
                }
                pos_ += 2 * run;
                last_ip_ = 0;
                out.op = PacketOp::kExt;
                out.value = kExtPsb;
                return true;
            }
            if (sub == kExtPsbEnd) {
                pos_ += 2;
                out.op = PacketOp::kExt;
                out.value = kExtPsbEnd;
                return true;
            }
            // Unknown ext: resync.
            if (!resyncToPsb())
                return false;
            out.op = PacketOp::kExt;
            out.value = kExtPsb;
            return true;
          }
          case PacketOp::kTip:
          case PacketOp::kTipPge:
          case PacketOp::kTipPgd:
          case PacketOp::kFup: {
            if (!have(2))
                return truncatedTail();
            std::uint8_t len = data_[pos_ + 1];
            if (len > 8 || !have(2 + len))
                return truncatedTail();
            pos_ += 2;
            std::uint64_t ip = last_ip_;
            if (len > 0) {
                std::uint64_t low = readLe(len);
                std::uint64_t mask =
                    len >= 8 ? ~0ull : ((1ull << (8 * len)) - 1);
                ip = (last_ip_ & ~mask) | (low & mask);
            }
            last_ip_ = ip;
            out.op = static_cast<PacketOp>(b);
            out.value = ip;
            return true;
          }
          case PacketOp::kPip:
            if (!have(6))
                return truncatedTail();
            ++pos_;
            out.op = PacketOp::kPip;
            out.value = readLe(5);
            return true;
          case PacketOp::kMode:
            if (!have(2))
                return truncatedTail();
            ++pos_;
            out.op = PacketOp::kMode;
            out.value = readLe(1);
            return true;
          case PacketOp::kTsc:
            if (!have(8))
                return truncatedTail();
            ++pos_;
            out.op = PacketOp::kTsc;
            out.value = readLe(7);
            return true;
          case PacketOp::kCyc: {
            ++pos_;
            std::uint64_t v = 0;
            int shift = 0;
            // A varint cut off by the buffer end keeps the value read
            // so far.
            while (pos_ < size_) {
                std::uint8_t byte = data_[pos_++];
                v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
                shift += 7;
                if (!(byte & 0x80))
                    break;
            }
            out.op = PacketOp::kCyc;
            out.value = v;
            return true;
          }
          case PacketOp::kOvf:
            ++pos_;
            out.op = PacketOp::kOvf;
            return true;
          case PacketOp::kPtw: {
            if (!have(2))
                return truncatedTail();
            std::uint8_t len = data_[pos_ + 1];
            if (len > 8 || !have(2 + len))
                return truncatedTail();
            pos_ += 2;
            out.op = PacketOp::kPtw;
            out.value = readLe(len);
            return true;
          }
          default:
            // Unknown opcode (e.g. we landed mid-packet after a ring
            // wrap): resynchronise at the next PSB.
            if (!resyncToPsb())
                return false;
            out.op = PacketOp::kExt;
            out.value = kExtPsb;
            return true;
        }
    }
    return false;
}

}  // namespace exist
