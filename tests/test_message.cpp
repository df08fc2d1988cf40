#include "sim/message.hpp"

#include <gtest/gtest.h>

namespace sld::sim {
namespace {

TEST(BeaconRequestPayload, RoundTrip) {
  BeaconRequestPayload p;
  p.nonce = 0x1122334455667788ULL;
  const auto parsed = BeaconRequestPayload::parse(p.serialize());
  EXPECT_EQ(parsed.nonce, p.nonce);
}

TEST(BeaconReplyPayload, RoundTripAllFields) {
  BeaconReplyPayload p;
  p.nonce = 42;
  p.claimed_position = {123.5, -9.25};
  p.processing_bias_cycles = 1234.5;
  p.range_manipulation_ft = -60.0;
  p.fake_wormhole_indication = true;
  const auto parsed = BeaconReplyPayload::parse(p.serialize());
  EXPECT_EQ(parsed.nonce, 42u);
  EXPECT_EQ(parsed.claimed_position, p.claimed_position);
  EXPECT_DOUBLE_EQ(parsed.processing_bias_cycles, 1234.5);
  EXPECT_DOUBLE_EQ(parsed.range_manipulation_ft, -60.0);
  EXPECT_TRUE(parsed.fake_wormhole_indication);
}

TEST(BeaconReplyPayload, HonestDefaults) {
  BeaconReplyPayload p;
  const auto parsed = BeaconReplyPayload::parse(p.serialize());
  EXPECT_EQ(parsed.processing_bias_cycles, 0.0);
  EXPECT_EQ(parsed.range_manipulation_ft, 0.0);
  EXPECT_FALSE(parsed.fake_wormhole_indication);
}

TEST(AlertPayload, RoundTrip) {
  AlertPayload p{17, 93};
  const auto parsed = AlertPayload::parse(p.serialize());
  EXPECT_EQ(parsed.reporter, 17u);
  EXPECT_EQ(parsed.target, 93u);
}

TEST(RevocationPayload, RoundTrip) {
  RevocationPayload p{55};
  EXPECT_EQ(RevocationPayload::parse(p.serialize()).revoked, 55u);
}

TEST(Payloads, TruncatedBytesThrow) {
  BeaconReplyPayload p;
  auto bytes = p.serialize();
  bytes.pop_back();
  EXPECT_THROW(BeaconReplyPayload::parse(bytes), util::TruncatedBuffer);
  EXPECT_THROW(AlertPayload::parse(util::Bytes{1, 2}), util::TruncatedBuffer);
}

TEST(TxContext, DefaultsAreHonest) {
  TxContext ctx;
  EXPECT_EQ(ctx.extra_delay_cycles, 0.0);
  EXPECT_FALSE(ctx.via_wormhole);
}

}  // namespace
}  // namespace sld::sim
