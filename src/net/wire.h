/**
 * @file
 * Wire-format primitives shared by the frame codec and the payload
 * serializers: LEB128 varints, zigzag signed mapping, delta-encoded
 * unsigned arrays (the common case — function profiles — is nearly
 * sorted, so deltas varint-pack into a fraction of the raw bytes),
 * raw IEEE-754 doubles (bit-exact round trips, a requirement of the
 * byte-identical-reports invariant), and checksum64(), the one
 * integrity check of every frame, WAL record and snapshot image.
 *
 * Checksummed envelopes are serialized once, into their final buffer:
 * the writer reserves the header, encodes the body in place behind it,
 * then patches the length and checksum slots (ByteWriter::patchU32 /
 * patchU64), so no body is built in one vector and copied into another.
 *
 * ByteReader is the safety boundary for everything arriving off the
 * simulated wire: every accessor bounds-checks and latches a failure
 * flag instead of over-reading, so corrupted or truncated frames
 * decode to "false", never to UB (tests/fuzz_test.cc hammers this).
 */
#ifndef EXIST_NET_WIRE_H
#define EXIST_NET_WIRE_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace exist::net {

/** `sizeof(T)` bytes at `p`, read little-endian. */
template <typename T>
inline T
loadLE(const std::uint8_t *p)
{
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof v);
    } else {
        for (std::size_t i = 0; i < sizeof v; ++i)
            v |= static_cast<T>(p[i]) << (8 * i);
    }
    return v;
}

/**
 * XXH64 with seed 0: the checksum of every frame payload, WAL record
 * and snapshot body. It consumes 32 bytes per step in four independent
 * multiply lanes, so it runs near memory speed where a byte-serial hash
 * (one dependent multiply per byte) would be the slowest stage of
 * journaling and collection.
 */
inline std::uint64_t
checksum64(const std::uint8_t *data, std::size_t size)
{
    constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
    constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
    constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
    constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
    constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;
    auto round = [](std::uint64_t acc, std::uint64_t lane) {
        return std::rotl(acc + lane * kP2, 31) * kP1;
    };
    auto merge = [&round](std::uint64_t h, std::uint64_t acc) {
        return (h ^ round(0, acc)) * kP1 + kP4;
    };

    const std::uint8_t *p = data;
    const std::uint8_t *const end = data + size;
    std::uint64_t h;
    if (size >= 32) {
        std::uint64_t v1 = kP1 + kP2;
        std::uint64_t v2 = kP2;
        std::uint64_t v3 = 0;
        std::uint64_t v4 = 0 - kP1;
        for (; end - p >= 32; p += 32) {
            v1 = round(v1, loadLE<std::uint64_t>(p));
            v2 = round(v2, loadLE<std::uint64_t>(p + 8));
            v3 = round(v3, loadLE<std::uint64_t>(p + 16));
            v4 = round(v4, loadLE<std::uint64_t>(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = merge(merge(merge(merge(h, v1), v2), v3), v4);
    } else {
        h = kP5;
    }
    h += size;
    for (; end - p >= 8; p += 8)
        h = std::rotl(h ^ round(0, loadLE<std::uint64_t>(p)), 27) * kP1 +
            kP4;
    if (end - p >= 4) {
        h = std::rotl(h ^ (loadLE<std::uint32_t>(p) * kP1), 23) * kP2 +
            kP3;
        p += 4;
    }
    for (; p < end; ++p)
        h = std::rotl(h ^ (*p * kP5), 11) * kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
}

/** Zigzag mapping so small negative ints varint-pack small. */
constexpr std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Append-only serializer over a caller-owned byte vector. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t> *out) : out_(out) {}

    void putU8(std::uint8_t v) { out_->push_back(v); }

    void
    putU32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    putU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    /** Overwrite the u32 at `pos`: a length slot reserved earlier. */
    void
    patchU32(std::size_t pos, std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            (*out_)[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    /** Overwrite the u64 at `pos`: a length or checksum slot. */
    void
    patchU64(std::size_t pos, std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            (*out_)[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    /** checksum64() over the bytes from `pos` to the end. */
    std::uint64_t
    checksumFrom(std::size_t pos) const
    {
        return checksum64(out_->data() + pos, out_->size() - pos);
    }

    /** LEB128 unsigned varint (1 byte for < 128, the common case). */
    void
    putVarint(std::uint64_t v)
    {
        while (v >= 0x80) {
            out_->push_back(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        out_->push_back(static_cast<std::uint8_t>(v));
    }

    void putSVarint(std::int64_t v) { putVarint(zigzag(v)); }

    /** Bit-exact double (the accuracy/CPI fields must round-trip). */
    void
    putDouble(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        putU64(bits);
    }

    void
    putBytes(const std::uint8_t *data, std::size_t size)
    {
        out_->insert(out_->end(), data, data + size);
    }

    void
    putString(const std::string &s)
    {
        putVarint(s.size());
        putBytes(reinterpret_cast<const std::uint8_t *>(s.data()),
                 s.size());
    }

    /**
     * Delta-encoded unsigned array: length, first value, then zigzag
     * deltas between consecutive elements. Function-profile arrays are
     * smooth, so this is the agent's main wire-byte saving.
     */
    void
    putDeltaArray(const std::vector<std::uint64_t> &values)
    {
        putVarint(values.size());
        std::uint64_t prev = 0;
        for (std::uint64_t v : values) {
            putSVarint(static_cast<std::int64_t>(v) -
                       static_cast<std::int64_t>(prev));
            prev = v;
        }
    }

  private:
    std::vector<std::uint8_t> *out_;
};

/**
 * Bounds-checked deserializer. All accessors return a value *and*
 * keep an `ok()` flag: once a read would cross the end, ok() latches
 * false and every subsequent read returns zero values, so decoders
 * can parse straight-line and check once.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool ok() const { return ok_; }
    std::size_t remaining() const { return size_ - pos_; }
    std::size_t consumed() const { return pos_; }

    std::uint8_t
    getU8()
    {
        if (!require(1))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    getU32()
    {
        if (!require(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    getU64()
    {
        if (!require(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    getVarint()
    {
        std::uint64_t v = 0;
        int shift = 0;
        while (true) {
            if (!require(1) || shift > 63) {
                ok_ = false;
                return 0;
            }
            std::uint8_t b = data_[pos_++];
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0)
                return v;
            shift += 7;
        }
    }

    std::int64_t getSVarint() { return unzigzag(getVarint()); }

    double
    getDouble()
    {
        std::uint64_t bits = getU64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return ok_ ? v : 0.0;
    }

    /** Borrow `size` bytes in place (no copy); nullptr when short. */
    const std::uint8_t *
    getBytes(std::size_t size)
    {
        if (!require(size))
            return nullptr;
        const std::uint8_t *p = data_ + pos_;
        pos_ += size;
        return p;
    }

    std::string
    getString()
    {
        std::uint64_t n = getVarint();
        const std::uint8_t *p = getBytes(n);
        if (p == nullptr)
            return {};
        return std::string(reinterpret_cast<const char *>(p), n);
    }

    std::vector<std::uint64_t>
    getDeltaArray()
    {
        std::uint64_t n = getVarint();
        // Each element costs at least one wire byte; reject length
        // prefixes the buffer cannot possibly back (allocation bomb).
        if (!ok_ || n > remaining()) {
            ok_ = false;
            return {};
        }
        std::vector<std::uint64_t> values;
        values.reserve(n);
        std::int64_t prev = 0;
        for (std::uint64_t i = 0; i < n && ok_; ++i) {
            prev += getSVarint();
            values.push_back(static_cast<std::uint64_t>(prev));
        }
        if (!ok_)
            return {};
        return values;
    }

  private:
    bool
    require(std::size_t n)
    {
        if (!ok_ || size_ - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

}  // namespace exist::net

#endif  // EXIST_NET_WIRE_H
