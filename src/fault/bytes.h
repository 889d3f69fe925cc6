// Bounds-checked little-endian byte codec for checkpoint snapshots.
//
// Checkpoints must survive hostile bytes: a loader fed a truncated or
// bit-flipped file has to fail with an exception, never with UB, and
// never after mutating any live state.  So the reader checks every
// access against the buffer end and throws CodecError; the writer is a
// plain append-only buffer.  All integers are fixed-width little-endian
// (encoded byte-by-byte, so the host's endianness never matters);
// doubles travel as their IEEE-754 bit pattern, which round-trips NaNs
// and signed zeros exactly — a checkpoint is a bit-level photograph,
// not a decimal rendering.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace sensedroid::fault {

/// Thrown on any malformed read (truncation, oversized length prefix).
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only encoder.
class ByteWriter {
 public:
  /// Starts with room for a header and a few fields, so no write grows
  /// an unallocated vector: GCC 12 at -O3 reports a false
  /// -Wstringop-overflow on that path, in the plain and sanitizer builds.
  ByteWriter() { buf_.reserve(64); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { little_endian<4>(v); }
  void u64(std::uint64_t v) { little_endian<8>(v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  /// Length-prefixed (u64) nested blob.
  void blob(std::span<const std::uint8_t> b) {
    u64(b.size());
    bytes(b);
  }
  /// Length-prefixed (u64) UTF-8 string.
  void str(std::string_view s) {
    u64(s.size());
    for (char c : s) buf_.push_back(static_cast<std::uint8_t>(c));
  }

  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  // The low N bytes of v, least significant first, appended in one
  // insert.
  template <std::size_t N>
  void little_endian(std::uint64_t v) {
    std::array<std::uint8_t, N> b;
    for (std::size_t i = 0; i < N; ++i) {
      b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked decoder over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    }
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw CodecError("ByteReader: bool byte not 0/1");
    return v == 1;
  }
  /// Length-prefixed nested blob; the returned span borrows this buffer.
  std::span<const std::uint8_t> blob() {
    const std::uint64_t n = u64();
    need(n);
    auto out = buf_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }
  /// Length-prefixed string.
  std::string str() {
    const auto b = blob();
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }
  /// A count prefix for a container about to be decoded element-wise.
  /// Rejects counts that could not possibly fit in the remaining bytes
  /// (each element costs >= min_element_bytes), so a corrupted length
  /// cannot drive a multi-gigabyte reserve.
  std::size_t count(std::size_t min_element_bytes) {
    const std::uint64_t n = u64();
    if (min_element_bytes > 0 && n > remaining() / min_element_bytes) {
      throw CodecError("ByteReader: element count exceeds buffer");
    }
    return static_cast<std::size_t>(n);
  }

  std::size_t remaining() const noexcept { return buf_.size() - pos_; }
  bool exhausted() const noexcept { return pos_ == buf_.size(); }
  /// Declares the message complete: trailing garbage is corruption.
  void expect_end() const {
    if (!exhausted()) throw CodecError("ByteReader: trailing bytes");
  }

 private:
  void need(std::uint64_t n) const {
    if (n > remaining()) {
      throw CodecError("ByteReader: truncated at byte " +
                       std::to_string(pos_));
    }
  }

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace sensedroid::fault
