#include "crypto/mac.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sld::crypto {
namespace {

Key128 key_a() {
  Key128 k{};
  k[0] = 1;
  return k;
}

Key128 key_b() {
  Key128 k{};
  k[0] = 2;
  return k;
}

const std::vector<std::uint8_t> kPayload{10, 20, 30};

TEST(Mac, RoundTripVerifies) {
  const MacTag tag = compute_mac(key_a(), 1, 2, kPayload);
  EXPECT_TRUE(verify_mac(key_a(), 1, 2, kPayload, tag));
}

TEST(Mac, WrongKeyFails) {
  const MacTag tag = compute_mac(key_a(), 1, 2, kPayload);
  EXPECT_FALSE(verify_mac(key_b(), 1, 2, kPayload, tag));
}

TEST(Mac, TamperedPayloadFails) {
  const MacTag tag = compute_mac(key_a(), 1, 2, kPayload);
  std::vector<std::uint8_t> tampered = kPayload;
  tampered[0] ^= 1;
  EXPECT_FALSE(verify_mac(key_a(), 1, 2, tampered, tag));
}

TEST(Mac, AddressBindingPreventsSplicing) {
  const MacTag tag = compute_mac(key_a(), 1, 2, kPayload);
  // Same payload and key, different claimed endpoints: must fail.
  EXPECT_FALSE(verify_mac(key_a(), 3, 2, kPayload, tag));
  EXPECT_FALSE(verify_mac(key_a(), 1, 4, kPayload, tag));
  EXPECT_FALSE(verify_mac(key_a(), 2, 1, kPayload, tag));
}

TEST(Mac, EmptyPayloadSupported) {
  const std::vector<std::uint8_t> empty;
  const MacTag tag = compute_mac(key_a(), 5, 6, empty);
  EXPECT_TRUE(verify_mac(key_a(), 5, 6, empty, tag));
  EXPECT_FALSE(verify_mac(key_a(), 5, 6, kPayload, tag));
}

TEST(Mac, RandomGuessFails) {
  // An external attacker guessing tags (Figure 1a) is filtered out.
  const MacTag tag = compute_mac(key_a(), 1, 2, kPayload);
  EXPECT_FALSE(verify_mac(key_a(), 1, 2, kPayload, tag ^ 0x1));
  EXPECT_FALSE(verify_mac(key_a(), 1, 2, kPayload, 0));
}

// Known-answer tags recorded from the buffer-building MAC (header and
// payload copied into one heap buffer, then hashed in one shot). The
// streaming MAC must reproduce them bit for bit at every length, including
// the 8- and 41-byte protocol payloads and the longer TESLA / cipher ones.
TEST(Mac, KnownAnswerTagsAcrossPayloadLengths) {
  Key128 key{};
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(0xa0 + i);
  const struct {
    std::size_t len;
    MacTag tag;
  } kCases[] = {
      {0, 0xc7765c7d24d1bedbULL},  {3, 0xb845e63f1dec0c24ULL},
      {8, 0xa486433e75f3b114ULL},  {41, 0x88dbdfa133d72e69ULL},
      {64, 0xd9b7961d69bf049aULL}, {200, 0x0204e322afed9172ULL},
  };
  for (const auto& c : kCases) {
    std::vector<std::uint8_t> payload(c.len);
    for (std::size_t i = 0; i < c.len; ++i)
      payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
    EXPECT_EQ(compute_mac(key, 0x1234, 0xbeef0001, payload), c.tag)
        << "payload length " << c.len;
  }
}

}  // namespace
}  // namespace sld::crypto
