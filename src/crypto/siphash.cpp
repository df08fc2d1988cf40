#include "crypto/siphash.hpp"

#include <cstring>

namespace sld::crypto {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int b) {
  return (x << b) | (x >> (64 - b));
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

SipHasher::SipHasher(const Key128& key)
    : v0_(0x736f6d6570736575ULL ^ load_le64(key.data())),
      v1_(0x646f72616e646f6dULL ^ load_le64(key.data() + 8)),
      v2_(0x6c7967656e657261ULL ^ load_le64(key.data())),
      v3_(0x7465646279746573ULL ^ load_le64(key.data() + 8)) {}

void SipHasher::round() {
  v0_ += v1_;
  v1_ = rotl(v1_, 13);
  v1_ ^= v0_;
  v0_ = rotl(v0_, 32);
  v2_ += v3_;
  v3_ = rotl(v3_, 16);
  v3_ ^= v2_;
  v0_ += v3_;
  v3_ = rotl(v3_, 21);
  v3_ ^= v0_;
  v2_ += v1_;
  v1_ = rotl(v1_, 17);
  v1_ ^= v2_;
  v2_ = rotl(v2_, 32);
}

void SipHasher::compress(std::uint64_t block) {
  v3_ ^= block;
  round();
  round();
  v0_ ^= block;
}

SipHasher& SipHasher::update(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // Top up a block left partial by the previous call.
  for (; n > 0 && (len_ & 7) != 0; --n, ++len_) {
    tail_ |= static_cast<std::uint64_t>(*p++) << (8 * (len_ & 7));
    if ((len_ & 7) == 7) {
      compress(tail_);
      tail_ = 0;
    }
  }
  for (; n >= 8; n -= 8, p += 8, len_ += 8) compress(load_le64(p));
  for (std::size_t i = 0; i < n; ++i, ++len_)
    tail_ |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return *this;
}

std::uint64_t SipHasher::finish() const {
  SipHasher s = *this;
  s.compress(((len_ & 0xff) << 56) | tail_);
  s.v2_ ^= 0xff;
  s.round();
  s.round();
  s.round();
  s.round();
  return s.v0_ ^ s.v1_ ^ s.v2_ ^ s.v3_;
}

std::uint64_t siphash24(const Key128& key,
                        std::span<const std::uint8_t> data) {
  return SipHasher(key).update(data).finish();
}

std::uint64_t siphash24_u64(const Key128& key, std::uint64_t value) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i)
    buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
  return siphash24(key, std::span<const std::uint8_t>(buf, 8));
}

Key128 derive_key(const Key128& master, std::uint64_t label) {
  const std::uint64_t lo = siphash24_u64(master, label * 2);
  const std::uint64_t hi = siphash24_u64(master, label * 2 + 1);
  Key128 out{};
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(lo >> (8 * i));
    out[static_cast<std::size_t>(i + 8)] =
        static_cast<std::uint8_t>(hi >> (8 * i));
  }
  return out;
}

}  // namespace sld::crypto
