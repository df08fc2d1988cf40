#include "sim/channel.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "check/invariant.hpp"
#include "obs/memstats.hpp"
#include "util/geometry.hpp"

namespace sld::sim {

namespace {
const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kBeaconRequest:
      return "request";
    case MsgType::kBeaconReply:
      return "reply";
    case MsgType::kAlertReport:
      return "alert";
    case MsgType::kRevocation:
      return "revocation";
    case MsgType::kAppData:
      return "app";
  }
  return "unknown";
}
}  // namespace

Channel::Channel(Scheduler& scheduler, ChannelConfig config, util::Rng rng)
    : scheduler_(scheduler),
      config_(std::move(config)),
      // A disabled plan never draws from this stream.
      faults_(config_.faults, rng.fork(0xfa0175)) {}

void Channel::add_node(Node* node) {
  if (node == nullptr) throw std::invalid_argument("Channel::add_node: null");
  if (!nodes_.emplace(node->id(), node).second)
    throw std::invalid_argument("Channel::add_node: duplicate node id");
}

void Channel::add_alias(NodeId alias, Node* node) {
  if (node == nullptr) throw std::invalid_argument("Channel::add_alias: null");
  if (!nodes_.emplace(alias, node).second)
    throw std::invalid_argument("Channel::add_alias: id already in use");
}

void Channel::add_wormhole(WormholeLink link) {
  if (!(link.exit_range_ft > 0.0) || !std::isfinite(link.exit_range_ft))
    throw std::invalid_argument(
        "Channel::add_wormhole: exit_range_ft must be finite and positive");
  if (!std::isfinite(link.mouth_a.x) || !std::isfinite(link.mouth_a.y) ||
      !std::isfinite(link.mouth_b.x) || !std::isfinite(link.mouth_b.y))
    throw std::invalid_argument(
        "Channel::add_wormhole: mouth_a and mouth_b must be finite");
  wormholes_.push_back(link);
}

SimTime Channel::packet_airtime_ns(std::size_t payload_bytes) const {
  const double bits = static_cast<double>(
                          (payload_bytes + config_.frame_overhead_bytes) * 8);
  return static_cast<SimTime>(bits / kRadioBitsPerSecond * 1e9);
}

bool connected(const util::Vec2& a, double a_range, const util::Vec2& b,
               const std::vector<WormholeLink>& wormholes) {
  if (reaches(a, a_range, b)) return true;
  for (const auto& w : wormholes) {
    if (reaches(a, a_range, w.mouth_a) &&
        reaches(w.mouth_b, w.exit_range_ft, b))
      return true;
    if (reaches(a, a_range, w.mouth_b) &&
        reaches(w.mouth_a, w.exit_range_ft, b))
      return true;
  }
  return false;
}

Node* Channel::find(NodeId id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second;
}

void Channel::unicast(const Node& sender, const Message& msg) {
  SLD_MEM_SCOPE("channel");
  // A crashed node does not transmit at all.
  if (faults_.enabled() &&
      faults_.node_crashed(sender.id(), scheduler_.now())) {
    ++stats_.crashed_drops;
    ++stats_.crashed_tx_drops;
    if (trace_.on())
      trace_.emit(trace_.event("pkt.crash_tx").f("node", sender.id()));
    return;
  }
  if (trace_.on()) {
    trace_.emit(trace_.event("pkt.send")
                    .f("node", sender.id())
                    .f("src", msg.src)
                    .f("dst", msg.dst)
                    .f("type", msg_type_name(msg.type))
                    .f("bytes", static_cast<std::uint64_t>(
                                    msg.payload.size() +
                                    config_.frame_overhead_bytes)));
  }
  TxContext ctx;
  ctx.radiating_position = sender.position();
  ctx.radiating_range = sender.range();
  auto& radio = radio_[sender.id()];
  ++radio.packets_sent;
  radio.bytes_sent += msg.payload.size() + config_.frame_overhead_bytes;
  transmit(ctx, msg);
}

NodeRadioStats Channel::node_radio(NodeId id) const {
  const auto it = radio_.find(id);
  return it == radio_.end() ? NodeRadioStats{} : it->second;
}

NodeRadioStats Channel::total_radio() const {
  NodeRadioStats total;
  for (const auto& [id, r] : radio_) {
    total.packets_sent += r.packets_sent;
    total.packets_received += r.packets_received;
    total.bytes_sent += r.bytes_sent;
    total.bytes_received += r.bytes_received;
  }
  return total;
}

void Channel::transmit(const TxContext& ctx, const Message& msg) {
  SLD_MEM_SCOPE("channel");
  ++stats_.transmissions;

  // Nodes examined by this transmission's topology scan — the fan-out a
  // spatial index would collapse. One histogram observation per transmit.
  std::uint64_t scanned = 0;
  const auto note_scan = [&]() {
    if (hot_ == nullptr) return;
    if (hot_->scans != nullptr) hot_->scans->inc();
    if (hot_->scan_nodes != nullptr) hot_->scan_nodes->inc(scanned);
    if (hot_->scan_fanout != nullptr)
      hot_->scan_fanout->observe(static_cast<double>(scanned));
  };

  Node* dst = find(msg.dst);

  // Direct path.
  if (dst != nullptr &&
      reaches(ctx.radiating_position, ctx.radiating_range, dst->position())) {
    deliver(*dst, ctx, msg);
  } else if (dst != nullptr) {
    ++stats_.out_of_range;
    if (trace_.on())
      trace_.emit(trace_.event("pkt.out_of_range")
                      .f("src", msg.src)
                      .f("dst", msg.dst));
  }

  // Wormhole paths: any tunnel mouth within the radiating range picks the
  // signal up and re-radiates it at the opposite mouth. A tunnelled copy
  // goes straight to deliver(), so it never crosses a second tunnel.
  if (dst == nullptr) {
    note_scan();
    return;
  }
  for (const auto& w : wormholes_) {
    struct Hop {
      const util::Vec2& in;
      const util::Vec2& out;
    };
    const Hop hops[2] = {{w.mouth_a, w.mouth_b}, {w.mouth_b, w.mouth_a}};
    for (const auto& hop : hops) {
      ++scanned;
      if (!reaches(ctx.radiating_position, ctx.radiating_range, hop.in))
        continue;
      TxContext tunneled;
      tunneled.radiating_position = hop.out;
      tunneled.radiating_range = w.exit_range_ft;
      tunneled.extra_delay_cycles =
          ctx.extra_delay_cycles + w.extra_delay_cycles;
      tunneled.via_wormhole = true;
      if (reaches(hop.out, w.exit_range_ft, dst->position())) {
        deliver(*dst, tunneled, msg);
      }
    }
  }
  note_scan();
}

void Channel::deliver(Node& dst, const TxContext& ctx, const Message& msg) {
  ++stats_.delivery_attempts;
  const double prop_ft =
      util::distance(ctx.radiating_position, dst.position());
  SimTime delay =
      packet_airtime_ns(msg.payload.size()) +
      static_cast<SimTime>(prop_ft / kSpeedOfLightFtPerSec * 1e9) +
      cycles_to_ns(ctx.extra_delay_cycles);

  if (!faults_.enabled()) {
    schedule_delivery(dst, ctx, msg, delay);
    check_conservation();
    return;
  }

  // A crashed receiver hears nothing. Windows are static, so the check can
  // run against the (deterministic) arrival time up front.
  if (faults_.node_crashed(dst.id(), scheduler_.now() + delay)) {
    ++stats_.crashed_drops;
    ++stats_.crashed_rx_drops;
    check_conservation();
    if (trace_.on())
      trace_.emit(trace_.event("pkt.crash_rx").f("node", dst.id()));
    return;
  }
  // Partition cuts are static time windows over physical node sets, so the
  // check runs against the deterministic arrival time and draws nothing.
  if (!faults_.plan().partitions.empty()) {
    const Node* src_node = find(msg.src);  // resolve aliases
    const NodeId src_phys = src_node != nullptr ? src_node->id() : msg.src;
    if (faults_.partition_blocked(src_phys, dst.id(),
                                  scheduler_.now() + delay)) {
      ++stats_.partition_drops;
      check_conservation();
      if (trace_.on())
        trace_.emit(trace_.event("pkt.partition_drop")
                        .f("src", msg.src)
                        .f("dst", msg.dst));
      return;
    }
  }
  auto fate = faults_.decide(msg.src, dst.id());
  if (fate.drop != FaultInjector::Drop::kNone) {
    const bool iid = fate.drop == FaultInjector::Drop::kIid;
    ++(iid ? stats_.losses : stats_.dropped_by_fault);
    check_conservation();
    if (trace_.on())
      trace_.emit(trace_.event(iid ? "pkt.loss" : "pkt.fault_drop")
                      .f("src", msg.src)
                      .f("dst", msg.dst));
    return;
  }
  delay += fate.extra_delay_ns;
  if (fate.corrupted) {
    // The primary copy arrives damaged; MAC verification at the receiver
    // rejects it. A duplicate (below) is an independent clean copy.
    ++stats_.corrupted;
    if (trace_.on())
      trace_.emit(trace_.event("pkt.corrupt")
                      .f("src", msg.src)
                      .f("dst", msg.dst));
    Message damaged = msg;
    faults_.corrupt(damaged);
    schedule_delivery(dst, ctx, damaged, delay);
  } else {
    schedule_delivery(dst, ctx, msg, delay);
  }
  if (fate.duplicated) {
    ++stats_.duplicates;
    if (trace_.on())
      trace_.emit(trace_.event("pkt.duplicate")
                      .f("src", msg.src)
                      .f("dst", msg.dst));
    // The duplicate trails one packet air time behind the original.
    schedule_delivery(dst, ctx, msg,
                      delay + packet_airtime_ns(msg.payload.size()));
  }
  check_conservation();
}

void Channel::check_conservation() const {
  SLD_INVARIANT(stats_.deliveries + stats_.losses + stats_.dropped_by_fault +
                        stats_.crashed_rx_drops + stats_.partition_drops ==
                    stats_.delivery_attempts + stats_.duplicates,
                "packet conservation: deliveries=" << stats_.deliveries
                    << " losses=" << stats_.losses << " fault_drops="
                    << stats_.dropped_by_fault << " crashed_rx="
                    << stats_.crashed_rx_drops << " partition="
                    << stats_.partition_drops << " attempts="
                    << stats_.delivery_attempts << " duplicates="
                    << stats_.duplicates);
  SLD_INVARIANT(stats_.crashed_drops ==
                    stats_.crashed_tx_drops + stats_.crashed_rx_drops,
                "crash accounting: total=" << stats_.crashed_drops
                    << " tx=" << stats_.crashed_tx_drops
                    << " rx=" << stats_.crashed_rx_drops);
}

void Channel::schedule_delivery(Node& dst, const TxContext& ctx,
                                const Message& msg, SimTime delay) {
  ++stats_.deliveries;
  if (ctx.via_wormhole) ++stats_.wormhole_deliveries;
  if (hot_ != nullptr && hot_->packet_lifetime_ns != nullptr)
    hot_->packet_lifetime_ns->observe(static_cast<double>(delay));
  if (trace_.on()) {
    trace_.emit(trace_.event("pkt.deliver")
                    .f("src", msg.src)
                    .f("dst", msg.dst)
                    .f("type", msg_type_name(msg.type))
                    .f("wormhole", ctx.via_wormhole)
                    .f("delay_ns", static_cast<std::int64_t>(delay)));
  }
  auto& radio = radio_[dst.id()];
  ++radio.packets_received;
  radio.bytes_received += msg.payload.size() + config_.frame_overhead_bytes;
  std::uint32_t slot = free_in_flight_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    free_in_flight_ = in_flight_[slot].next_free;
  }
  InFlight& f = in_flight_[slot];
  f.dst = &dst;
  f.delivery.msg = msg;  // reuses the slot's payload capacity
  f.delivery.ctx = ctx;
  scheduler_.schedule_after(delay,
                            [this, slot]() { complete_delivery(slot); });
}

void Channel::complete_delivery(std::uint32_t slot) {
  InFlight& f = in_flight_[slot];
  f.delivery.rx_time = scheduler_.now();
  f.dst->on_message(f.delivery);
  f.next_free = free_in_flight_;
  free_in_flight_ = slot;
}

}  // namespace sld::sim
