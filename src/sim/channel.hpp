// The radio channel: range-limited unicast with transmission + propagation
// delay, optional fault injection, and wormhole tunnels.
//
// Wormholes are modelled at the channel level, matching the paper's §4
// setup ("a wormhole ... which forwards every message received at one side
// immediately to the other side"): a transmission whose radiating position
// reaches one tunnel mouth is re-radiated at the other mouth. Deliveries
// arriving through a tunnel carry `via_wormhole = true` ground truth and
// the tunnel's extra delay; RSSI ranging on such a delivery measures the
// distance to the *exit mouth*, which is precisely why the paper's
// consistency check catches wormhole-replayed beacons.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "sim/message.hpp"
#include "sim/node.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace sld::sim {

/// A wormhole tunnel between two field positions.
struct WormholeLink {
  util::Vec2 mouth_a;
  util::Vec2 mouth_b;
  /// Re-transmission range at the exit mouth, in feet.
  double exit_range_ft = 0.0;
  /// Latency the tunnel adds, in CPU cycles ("low latency link"; the
  /// paper's simulated wormhole forwards immediately, so default 0).
  double extra_delay_cycles = 0.0;
};

/// The reach test every topology question reduces to: a transmission
/// radiating from `from` with range `range` is heard at `to`.
inline bool reaches(const util::Vec2& from, double range,
                    const util::Vec2& to) {
  return util::distance_squared(from, to) <= range * range;
}

/// True if a node at `a` with range `a_range` reaches position `b` directly
/// or through one of `wormholes`: `a` reaches one mouth and `b` is within
/// the tunnel's exit range of the other. Channel::connected and
/// Network::connected_nodes both answer with this predicate.
bool connected(const util::Vec2& a, double a_range, const util::Vec2& b,
               const std::vector<WormholeLink>& wormholes);

struct ChannelConfig {
  /// Fixed per-packet framing overhead in bytes (preamble/header/CRC).
  std::size_t frame_overhead_bytes = 16;
  /// Composable fault injection (loss models, duplication, corruption,
  /// jitter, crash windows). All off by default, which matches the
  /// paper's reliable delivery via retransmission.
  FaultPlan faults;
};

/// Counters exposed for tests and experiment reporting. Every delivery
/// attempt is conserved: it is lost (the FaultPlan's i.i.d. term), dropped
/// by another fault, dropped at a crashed receiver, or delivered — and a
/// duplication fault adds one extra delivery. So
///
///   deliveries + losses + dropped_by_fault + crashed_rx_drops
///       + partition_drops
///     == delivery_attempts + duplicates
///
/// always, which `SLD_INVARIANT` asserts after every attempt in
/// invariant-enabled builds and the property suite asserts on the public
/// stats.
struct ChannelStats {
  std::uint64_t transmissions = 0;
  /// Reachable (src, dst) delivery attempts, direct or through a wormhole.
  std::uint64_t delivery_attempts = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t wormhole_deliveries = 0;
  /// Drops by FaultPlan::loss_probability, the i.i.d. loss term.
  std::uint64_t losses = 0;
  std::uint64_t out_of_range = 0;
  // Fault-injection outcomes (all zero when ChannelConfig::faults is off).
  /// Drops by the burst, per-node and per-link loss terms.
  std::uint64_t dropped_by_fault = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t corrupted = 0;
  /// crashed_drops = crashed_tx_drops + crashed_rx_drops (kept as the
  /// combined total for existing consumers).
  std::uint64_t crashed_drops = 0;
  std::uint64_t crashed_tx_drops = 0;
  std::uint64_t crashed_rx_drops = 0;
  /// Deliveries dropped because they crossed an active partition cut.
  std::uint64_t partition_drops = 0;
};

/// Per-node radio activity, the basis of energy accounting (tx and rx are
/// the dominant energy consumers on a mote).
struct NodeRadioStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  /// Energy estimate with CC1000-class costs (~ 0.080 uJ/bit tx at 0 dBm,
  /// ~ 0.038 uJ/bit rx), in microjoules.
  double energy_uj(double tx_uj_per_byte = 0.64,
                   double rx_uj_per_byte = 0.30) const {
    return static_cast<double>(bytes_sent) * tx_uj_per_byte +
           static_cast<double>(bytes_received) * rx_uj_per_byte;
  }
};

class Channel {
 public:
  Channel(Scheduler& scheduler, ChannelConfig config, util::Rng rng);

  /// Registers a node (non-owning; the Network owns nodes).
  void add_node(Node* node);

  /// Registers an extra address for an already-registered node. Used for
  /// detecting IDs: packets sent to the alias are delivered to the owning
  /// node, whose radio hardware is the same.
  void add_alias(NodeId alias, Node* node);

  void add_wormhole(WormholeLink link);
  const std::vector<WormholeLink>& wormholes() const { return wormholes_; }

  /// Sends `msg` from `sender` using the sender's true position/range.
  /// The message is delivered directly if the destination is in range and
  /// additionally through every wormhole whose mouths connect them. Each
  /// delivery gets its own copy, so `msg` need not outlive the call.
  void unicast(const Node& sender, const Message& msg);

  /// True if a transmission from `a` reaches `b` directly or via a tunnel.
  bool connected(const Node& a, const Node& b) const {
    return sim::connected(a.position(), a.range(), b.position(), wormholes_);
  }

  Node* find(NodeId id) const;

  const ChannelStats& stats() const { return stats_; }

  /// The channel's fault injector (crash queries, plan introspection).
  const FaultInjector& faults() const { return faults_; }

  /// Radio activity of one node (zeros for unknown ids).
  NodeRadioStats node_radio(NodeId id) const;

  /// Per-node radio activity of every node that sent or received anything.
  const std::unordered_map<NodeId, NodeRadioStats>& radio_all() const {
    return radio_;
  }

  /// Installs the event tracer (off by default). Emits one record per
  /// packet fate: pkt.send / pkt.deliver / pkt.loss / pkt.out_of_range /
  /// pkt.fault_drop / pkt.duplicate / pkt.corrupt / pkt.crash_tx /
  /// pkt.crash_rx / pkt.partition_drop.
  void set_tracer(obs::Tracer tracer) { trace_ = std::move(tracer); }

  /// The installed tracer (off by default). Nodes and the Network borrow
  /// it for lifecycle events (node.reboot, partition.start/heal).
  const obs::Tracer& tracer() const { return trace_; }

  /// Radio activity summed over every node — the basis of whole-network
  /// energy accounting (e.g. the energy overhead of retransmissions).
  NodeRadioStats total_radio() const;

  /// Air time of a `payload_bytes`-byte packet, in nanoseconds.
  SimTime packet_airtime_ns(std::size_t payload_bytes) const;

  /// Optional hot-path micro-counter sink (scan fan-out, packet lifetime;
  /// see sim/hotstats.hpp). Not owned; nullptr turns recording back off.
  void set_hot_stats(HotStats* hot) { hot_ = hot; }

 private:
  void transmit(const TxContext& ctx, const Message& msg);
  void deliver(Node& dst, const TxContext& ctx, const Message& msg);
  void schedule_delivery(Node& dst, const TxContext& ctx, const Message& msg,
                         SimTime delay);
  /// Hands in-flight slot `slot` to its receiver, then frees the slot.
  void complete_delivery(std::uint32_t slot);
  /// Asserts the ChannelStats conservation law (no-op in Release builds).
  void check_conservation() const;

  Scheduler& scheduler_;
  ChannelConfig config_;
  FaultInjector faults_;
  std::unordered_map<NodeId, Node*> nodes_;
  std::vector<WormholeLink> wormholes_;
  ChannelStats stats_;

  /// In-flight slots: a scheduled delivery is copied once into a slot and
  /// its event captures only (this, slot index), which std::function
  /// stores without allocating. A slot is freed after its receiver's
  /// on_message returns, so the Delivery a handler reads stays put for the
  /// whole callback; freed slots keep their payload capacity for the next
  /// copy. The handler may transmit, claiming new slots as it runs, and a
  /// deque grows without moving existing elements, so references into
  /// slots stay valid throughout.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  struct InFlight {
    Node* dst = nullptr;
    Delivery delivery;
    std::uint32_t next_free = kNoSlot;  // free-list link while unused
  };
  std::deque<InFlight> in_flight_;
  std::uint32_t free_in_flight_ = kNoSlot;

  std::unordered_map<NodeId, NodeRadioStats> radio_;
  obs::Tracer trace_;
  HotStats* hot_ = nullptr;
};

}  // namespace sld::sim
