#include "sim/channel.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "sim/network.hpp"

namespace sld::sim {
namespace {

/// Records every delivery it receives.
class RecorderNode final : public Node {
 public:
  using Node::Node;
  void on_message(const Delivery& d) override { deliveries.push_back(d); }
  std::vector<Delivery> deliveries;
};

Message make_msg(NodeId src, NodeId dst) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.type = MsgType::kAppData;
  m.payload = {1, 2, 3};
  return m;
}

class ChannelTest : public ::testing::Test {
 protected:
  Network net{ChannelConfig{}, 99};
};

TEST_F(ChannelTest, DirectDeliveryWithinRange) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries[0].msg.src, 1u);
  EXPECT_FALSE(b.deliveries[0].ctx.via_wormhole);
  EXPECT_EQ(b.deliveries[0].ctx.radiating_position, (util::Vec2{0, 0}));
}

TEST_F(ChannelTest, OutOfRangeIsDropped) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{151, 0}, 150.0);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  EXPECT_TRUE(b.deliveries.empty());
  EXPECT_EQ(net.channel().stats().out_of_range, 1u);
}

TEST_F(ChannelTest, DeliveryDelayIncludesAirtime) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  // 3 payload + 16 overhead bytes at 19.2 kbps ~ 7.9 ms.
  EXPECT_GE(b.deliveries[0].rx_time, 7 * kMillisecond);
  EXPECT_LE(b.deliveries[0].rx_time, 9 * kMillisecond);
}

TEST_F(ChannelTest, WormholeTunnelsToFarNode) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{100, 100}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{800, 700}, 150.0);
  WormholeLink link;
  link.mouth_a = {100, 100};
  link.mouth_b = {800, 700};
  link.exit_range_ft = 150.0;
  net.channel().add_wormhole(link);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_TRUE(b.deliveries[0].ctx.via_wormhole);
  // RSSI-relevant: the energy radiates from the exit mouth.
  EXPECT_EQ(b.deliveries[0].ctx.radiating_position, (util::Vec2{800, 700}));
  EXPECT_EQ(net.channel().stats().wormhole_deliveries, 1u);
}

TEST_F(ChannelTest, WormholeIsBidirectional) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{100, 100}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{800, 700}, 150.0);
  WormholeLink link;
  link.mouth_a = {100, 100};
  link.mouth_b = {800, 700};
  link.exit_range_ft = 150.0;
  net.channel().add_wormhole(link);
  net.channel().unicast(b, make_msg(2, 1));
  net.run();
  ASSERT_EQ(a.deliveries.size(), 1u);
  EXPECT_TRUE(a.deliveries[0].ctx.via_wormhole);
}

TEST_F(ChannelTest, WormholeDeliveryCarriesExtraDelay) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{100, 100}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{800, 700}, 150.0);
  WormholeLink link;
  link.mouth_a = {100, 100};
  link.mouth_b = {800, 700};
  link.exit_range_ft = 150.0;
  link.extra_delay_cycles = 5000.0;
  net.channel().add_wormhole(link);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_DOUBLE_EQ(b.deliveries[0].ctx.extra_delay_cycles, 5000.0);
}

TEST_F(ChannelTest, NearbyNodeGetsAllCopies) {
  // Receiver in range of the sender AND of both wormhole mouths: the
  // direct copy plus one tunnelled copy per traversal direction arrive
  // (protocols dedup by nonce).
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  WormholeLink link;
  link.mouth_a = {10, 0};
  link.mouth_b = {120, 0};
  link.exit_range_ft = 150.0;
  net.channel().add_wormhole(link);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  ASSERT_EQ(b.deliveries.size(), 3u);
  int tunneled = 0;
  for (const auto& d : b.deliveries) tunneled += d.ctx.via_wormhole ? 1 : 0;
  EXPECT_EQ(tunneled, 2);
}

TEST_F(ChannelTest, AliasRoutesToOwner) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  net.add_alias(5000, b);
  net.channel().unicast(a, make_msg(1, 5000));
  net.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries[0].msg.dst, 5000u);
}

TEST_F(ChannelTest, AliasCollisionRejected) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  EXPECT_THROW(net.add_alias(1, a), std::invalid_argument);
}

TEST_F(ChannelTest, ConnectedCombinesDirectAndWormhole) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{100, 100}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{800, 700}, 150.0);
  auto& c = net.emplace_node<RecorderNode>(3, util::Vec2{150, 100}, 150.0);
  EXPECT_FALSE(net.channel().connected(a, b));
  EXPECT_TRUE(net.channel().connected(a, c));
  WormholeLink link;
  link.mouth_a = {100, 100};
  link.mouth_b = {800, 700};
  link.exit_range_ft = 150.0;
  net.channel().add_wormhole(link);
  EXPECT_TRUE(net.channel().connected(a, b));
}

TEST_F(ChannelTest, AddWormholeRejectsNonFiniteLinks) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto link = [](util::Vec2 a, util::Vec2 b, double exit_range) {
    WormholeLink w;
    w.mouth_a = a;
    w.mouth_b = b;
    w.exit_range_ft = exit_range;
    return w;
  };
  auto& ch = net.channel();
  EXPECT_THROW(ch.add_wormhole(link({0, 0}, {1, 1}, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(ch.add_wormhole(link({0, 0}, {1, 1}, kNaN)),
               std::invalid_argument);
  EXPECT_THROW(ch.add_wormhole(link({0, 0}, {1, 1}, kInf)),
               std::invalid_argument);
  EXPECT_THROW(ch.add_wormhole(link({kNaN, 0}, {1, 1}, 10.0)),
               std::invalid_argument);
  EXPECT_THROW(ch.add_wormhole(link({0, 0}, {1, -kInf}, 10.0)),
               std::invalid_argument);
  EXPECT_TRUE(ch.wormholes().empty());
}

TEST_F(ChannelTest, PacketAirtimeScalesWithSize) {
  EXPECT_GT(net.channel().packet_airtime_ns(100),
            net.channel().packet_airtime_ns(10));
  // 16 framing bytes alone: 128 bits at 19.2 kbps.
  EXPECT_EQ(net.channel().packet_airtime_ns(0), 6'666'666);
}

TEST_F(ChannelTest, PerNodeRadioAccounting) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  net.channel().unicast(a, make_msg(1, 2));
  net.channel().unicast(a, make_msg(1, 2));
  net.channel().unicast(b, make_msg(2, 1));
  net.run();

  const auto ra = net.channel().node_radio(1);
  const auto rb = net.channel().node_radio(2);
  EXPECT_EQ(ra.packets_sent, 2u);
  EXPECT_EQ(ra.packets_received, 1u);
  EXPECT_EQ(rb.packets_sent, 1u);
  EXPECT_EQ(rb.packets_received, 2u);
  // 3-byte payload + 16 bytes framing per packet.
  EXPECT_EQ(ra.bytes_sent, 2u * 19u);
  EXPECT_EQ(ra.bytes_received, 19u);
  EXPECT_GT(ra.energy_uj(), rb.energy_uj());  // tx costs more than rx
  // Unknown node: zeros.
  EXPECT_EQ(net.channel().node_radio(99).packets_sent, 0u);
}

TEST_F(ChannelTest, DuplicateNodeIdRejected) {
  net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  EXPECT_THROW(net.emplace_node<RecorderNode>(1, util::Vec2{1, 1}, 150.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace sld::sim
