// The Network ties scheduler + channel + node ownership together and offers
// neighbourhood queries.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/channel.hpp"
#include "sim/node.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace sld::sim {

class Network {
 public:
  explicit Network(ChannelConfig channel_config = {},
                   std::uint64_t seed = 0x5eedULL);

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }
  Channel& channel() { return channel_; }
  const Channel& channel() const { return channel_; }

  /// Constructs a node of type T in place, registers it with the channel,
  /// and attaches it. Returns a reference valid for the Network's lifetime.
  template <typename T, typename... Args>
  T& emplace_node(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    register_node(std::move(owned));
    return ref;
  }

  /// Registers an extra address (e.g. a detecting ID) for `owner`.
  void add_alias(NodeId alias, Node& owner) { channel_.add_alias(alias, &owner); }

  Node* node(NodeId id) const;
  std::size_t node_count() const { return order_.size(); }
  const std::vector<Node*>& nodes() const { return order_; }

  /// IDs of nodes that can hear `id` directly (no wormholes), in
  /// registration order.
  std::vector<NodeId> direct_neighbors(NodeId id);

  /// IDs of nodes connected to `id` directly or through a wormhole (the
  /// sim::connected predicate), in registration order.
  std::vector<NodeId> connected_nodes(NodeId id);

  /// Neighbour-index work since construction: queries answered and
  /// candidates (grid entries) distance-tested for them. At a fixed node
  /// density candidates per query stay flat however large the field grows.
  std::uint64_t index_queries() const { return index_queries_; }
  std::uint64_t index_candidates() const { return index_candidates_; }

  /// Collects every node's start-hook plan (Node::plan_start) in
  /// registration order and schedules it as one sorted lane, then the
  /// fault plan's crash, reboot and partition transitions.
  void start_all();

  /// Runs the simulation until the event queue drains (bounded by
  /// `max_events` as a runaway guard). Returns events executed.
  std::uint64_t run(std::uint64_t max_events = 50'000'000ULL);

 private:
  void register_node(std::unique_ptr<Node> node);

  // Neighbour index: a uniform grid over the registered nodes, cells
  // row-major, each cell's nodes contiguous in `grid_entries_` in
  // registration order (a CSR layout). It is built on the first query after
  // a registration; see DESIGN.md §16.
  struct GridEntry {
    util::Vec2 position;
    /// Registration index in the high 32 bits, node id in the low 32, so
    /// sorting gathered keys restores registration order.
    std::uint64_t key = 0;
  };
  void build_index();
  std::vector<NodeId> query(NodeId id, bool through_wormholes);
  /// Appends to `gathered_` the key of every node `center` reaches with
  /// range `radius`.
  void gather(const util::Vec2& center, double radius);

  Scheduler scheduler_;
  Channel channel_;
  std::vector<std::unique_ptr<Node>> owned_;
  std::vector<Node*> order_;
  std::unordered_map<NodeId, Node*> by_id_;

  std::size_t indexed_ = 0;  // nodes in the grid; != order_.size() => stale
  util::Vec2 grid_origin_;
  double grid_inv_cell_ = 0.0;
  std::size_t grid_cols_ = 0;
  std::size_t grid_rows_ = 0;
  std::vector<std::uint32_t> grid_start_;  // rows * cols + 1 entry offsets
  std::vector<GridEntry> grid_entries_;
  std::vector<std::uint64_t> gathered_;  // query scratch
  std::uint64_t index_queries_ = 0;
  std::uint64_t index_candidates_ = 0;
};

}  // namespace sld::sim
