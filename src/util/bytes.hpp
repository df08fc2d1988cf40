// Little-endian byte serialization for wire messages. Kept deliberately
// simple: fixed-width integers, doubles (IEEE-754 bit pattern), and raw
// byte spans. Reads are bounds-checked and throw on truncation, which the
// message layer converts into "malformed packet, drop".
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace sld::util {

using Bytes = std::vector<std::uint8_t>;

/// Thrown by ByteReader when a read runs past the end of the buffer.
class TruncatedBuffer : public std::runtime_error {
 public:
  TruncatedBuffer() : std::runtime_error("truncated buffer") {}
};

/// Appends little-endian encoded values to a growing byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Reserves `capacity` bytes up front: a writer sized to its exact
  /// output allocates once instead of growing byte by byte.
  explicit ByteWriter(std::size_t capacity) { out_.reserve(capacity); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) byte string.
  void sized_bytes(std::span<const std::uint8_t> data);

  const Bytes& data() const { return out_; }
  Bytes take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  Bytes out_;
};

/// Reads little-endian encoded values from a byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  Bytes bytes(std::size_t n);
  /// Length-prefixed (u32) byte string.
  Bytes sized_bytes();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) throw TruncatedBuffer();
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Hex rendering for debugging / logging.
std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace sld::util
