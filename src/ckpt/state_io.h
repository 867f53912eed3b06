/**
 * @file
 * Byte-level primitives for checkpoint serialization.
 *
 * StateWriter appends fixed-width little-endian values to a growable
 * byte buffer; StateReader consumes them back with hard bounds checks.
 * Every multi-byte value is packed explicitly byte-by-byte so the
 * encoding is identical across hosts regardless of endianness, and
 * doubles travel as their IEEE-754 bit patterns so a restored
 * accumulator is bit-exact, not merely "close".
 *
 * Readers fail loudly: running off the end of a payload or reading a
 * mismatched guard value means the checkpoint does not describe the
 * component being restored, and resuming anyway would silently produce
 * wrong results. fatal() (an exception) lets the caller fall back a
 * generation instead.
 */

#ifndef CONFSIM_CKPT_STATE_IO_H
#define CONFSIM_CKPT_STATE_IO_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/status.h"

namespace confsim {

/** Append-only little-endian encoder for component state payloads. */
class StateWriter
{
  public:
    void putU8(std::uint8_t v) { bytes_.push_back(v); }
    void putU16(std::uint16_t v) { putLittleEndian<2>(v); }
    void putU32(std::uint32_t v) { putLittleEndian<4>(v); }
    void putU64(std::uint64_t v) { putLittleEndian<8>(v); }

    void putBool(bool v) { putU8(v ? 1 : 0); }

    /** Bit-pattern transport: restored doubles compare bitwise-equal. */
    void putF64(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof v);
        std::memcpy(&bits, &v, sizeof bits);
        putU64(bits);
    }

    void putString(const std::string &s)
    {
        putU32(static_cast<std::uint32_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    void putBytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        bytes_.insert(bytes_.end(), p, p + size);
    }

    /** Make room for @p more bytes (once per bulk table, not per value). */
    void reserve(std::size_t more) { bytes_.reserve(bytes_.size() + more); }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    /** Append the low @p N bytes of @p v, least significant first. */
    template <std::size_t N>
    void putLittleEndian(std::uint64_t v)
    {
        std::uint8_t buf[N];
        for (std::size_t i = 0; i < N; ++i)
            buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
        bytes_.insert(bytes_.end(), buf, buf + N);
    }

    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked decoder over a component state payload. */
class StateReader
{
  public:
    StateReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit StateReader(const std::vector<std::uint8_t> &bytes)
        : StateReader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t getU8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint16_t getU16()
    {
        const std::uint16_t lo = getU8();
        const std::uint16_t hi = getU8();
        return static_cast<std::uint16_t>(lo | (hi << 8));
    }

    std::uint32_t getU32()
    {
        const std::uint32_t lo = getU16();
        const std::uint32_t hi = getU16();
        return lo | (hi << 16);
    }

    std::uint64_t getU64()
    {
        const std::uint64_t lo = getU32();
        const std::uint64_t hi = getU32();
        return lo | (hi << 32);
    }

    bool getBool() { return getU8() != 0; }

    double getF64()
    {
        const std::uint64_t bits = getU64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string getString()
    {
        const std::uint32_t n = getU32();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    /**
     * Consume a u64 and require it to equal @p expected. Guards protect
     * restores against configuration drift: a table serialized at one
     * size must not be poured into a table of another size.
     */
    void expectU64(std::uint64_t expected, const char *what)
    {
        const std::uint64_t got = getU64();
        if (got != expected)
            fatal(ErrorCategory::kCheckpoint, std::string("checkpoint state mismatch for ") + what +
                  ": stored " + std::to_string(got) + ", expected " +
                  std::to_string(expected));
    }

    /**
     * Consume expected.size() bytes and require them to equal
     * @p expected: for a part whose state already lives elsewhere and
     * was restored first, so the stored copy can only be checked.
     */
    void expectBytes(const std::vector<std::uint8_t> &expected,
                     const char *what)
    {
        need(expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            if (data_[pos_ + i] != expected[i])
                fatal(ErrorCategory::kCheckpoint,
                      std::string("checkpoint state mismatch for ") +
                          what + ": byte " + std::to_string(i) +
                          " of " + std::to_string(expected.size()) +
                          " differs");
        }
        pos_ += expected.size();
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    void need(std::size_t n) const
    {
        if (size_ - pos_ < n)
            fatal(ErrorCategory::kCheckpoint, "checkpoint payload truncated: wanted " +
                  std::to_string(n) + " byte(s), " +
                  std::to_string(size_ - pos_) + " left");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace confsim

#endif // CONFSIM_CKPT_STATE_IO_H
