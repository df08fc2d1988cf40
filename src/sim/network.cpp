#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/memstats.hpp"

namespace sld::sim {

Network::Network(ChannelConfig channel_config, std::uint64_t seed)
    : channel_(scheduler_, channel_config, util::Rng(seed)) {}

void Network::register_node(std::unique_ptr<Node> node) {
  Node* raw = node.get();
  if (by_id_.contains(raw->id()))
    throw std::invalid_argument("Network: duplicate node id");
  channel_.add_node(raw);
  raw->attach(&channel_, &scheduler_);
  by_id_.emplace(raw->id(), raw);
  order_.push_back(raw);
  owned_.push_back(std::move(node));
}

Node* Network::node(NodeId id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

namespace {

// Cells [first, last] along one axis of `count` cells that overlap
// [lo, hi]; false when none do. Monotone in lo and hi, and clamped to the
// grid, so a node whose coordinate lies in [lo, hi] always falls in the
// span.
bool axis_span(double lo, double hi, double origin, double inv_cell,
               std::size_t count, std::size_t& first, std::size_t& last) {
  if (count == 1) {
    first = last = 0;
    return true;
  }
  const double f = std::floor((lo - origin) * inv_cell);
  const double l = std::floor((hi - origin) * inv_cell);
  const auto top = static_cast<double>(count - 1);
  if (!(l >= 0.0) || !(f <= top)) return false;
  first = f > 0.0 ? static_cast<std::size_t>(f) : 0;
  last = l < top ? static_cast<std::size_t>(l) : count - 1;
  return true;
}

std::size_t axis_cell(double v, double origin, double inv_cell,
                      std::size_t count) {
  std::size_t first = 0;
  std::size_t last = 0;
  axis_span(v, v, origin, inv_cell, count, first, last);
  return first;
}

}  // namespace

void Network::build_index() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = order_.size();
  util::Vec2 lo{kInf, kInf};
  util::Vec2 hi{-kInf, -kInf};
  double max_range = 0.0;
  for (const Node* node : order_) {
    const util::Vec2& p = node->position();
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
    max_range = std::max(max_range, node->range());
  }

  // Cell side: half the largest range, so a query at that range reads
  // about five cell rows, each one contiguous run of entries. It doubles
  // while the grid would hold more than 2n + 1 cells, which keeps the build
  // O(n) in sparse or stretched fields. An extent too wide for a double
  // gets one cell.
  grid_origin_ = lo;
  grid_inv_cell_ = 0.0;
  grid_cols_ = grid_rows_ = 1;
  const double width = hi.x - lo.x;
  const double height = hi.y - lo.y;
  if (std::isfinite(width) && std::isfinite(height)) {
    double cell = max_range / 2.0;
    const auto cells_along = [&cell](double extent) {
      return std::floor(extent / cell) + 1.0;
    };
    while (cells_along(width) * cells_along(height) >
           2.0 * static_cast<double>(n) + 1.0)
      cell *= 2.0;
    grid_inv_cell_ = 1.0 / cell;
    grid_cols_ =
        static_cast<std::size_t>(std::floor(width * grid_inv_cell_)) + 1;
    grid_rows_ =
        static_cast<std::size_t>(std::floor(height * grid_inv_cell_)) + 1;
  }

  // Counting sort by cell. Filling each cell from its end while walking
  // the nodes backwards keeps registration order within a cell and leaves
  // grid_start_[c] at the start of cell c.
  const auto cell_of = [&](const Node& node) {
    const util::Vec2& p = node.position();
    return axis_cell(p.y, lo.y, grid_inv_cell_, grid_rows_) * grid_cols_ +
           axis_cell(p.x, lo.x, grid_inv_cell_, grid_cols_);
  };
  const std::size_t cells = grid_cols_ * grid_rows_;
  grid_start_.assign(cells + 1, 0);
  for (const Node* node : order_) ++grid_start_[cell_of(*node)];
  std::partial_sum(grid_start_.begin(), grid_start_.end(),
                   grid_start_.begin());
  grid_entries_.resize(n);
  for (std::size_t i = n; i-- > 0;) {
    const Node& node = *order_[i];
    grid_entries_[--grid_start_[cell_of(node)]] = {
        node.position(), (static_cast<std::uint64_t>(i) << 32) | node.id()};
  }
  indexed_ = n;
}

void Network::gather(const util::Vec2& center, double radius) {
  // Half-width of the box of cells to read. It must hold every node
  // reaches() accepts despite rounding: the relative margin covers the
  // cell arithmetic, the absolute one a radius whose square underflows. A
  // radius whose square overflows accepts every node, so reads them all.
  const double pad =
      std::isfinite(radius * radius)
          ? radius +
                1e-9 * (radius + std::abs(center.x) + std::abs(center.y)) +
                1e-150
          : std::numeric_limits<double>::infinity();
  std::size_t c0 = 0;
  std::size_t c1 = 0;
  std::size_t r0 = 0;
  std::size_t r1 = 0;
  if (!axis_span(center.x - pad, center.x + pad, grid_origin_.x,
                 grid_inv_cell_, grid_cols_, c0, c1) ||
      !axis_span(center.y - pad, center.y + pad, grid_origin_.y,
                 grid_inv_cell_, grid_rows_, r0, r1))
    return;
  for (std::size_t r = r0; r <= r1; ++r) {
    const std::size_t row = r * grid_cols_;
    const GridEntry* e = grid_entries_.data() + grid_start_[row + c0];
    const GridEntry* const end =
        grid_entries_.data() + grid_start_[row + c1 + 1];
    index_candidates_ += static_cast<std::uint64_t>(end - e);
    for (; e != end; ++e)
      if (reaches(center, radius, e->position)) gathered_.push_back(e->key);
  }
}

std::vector<NodeId> Network::query(NodeId id, bool through_wormholes) {
  const Node* center = node(id);
  if (center == nullptr)
    throw std::invalid_argument("Network: neighbour query for unknown node");
  if (indexed_ != order_.size()) build_index();
  ++index_queries_;
  gathered_.clear();
  const util::Vec2& at = center->position();
  const double range = center->range();
  gather(at, range);
  if (through_wormholes) {
    for (const auto& w : channel_.wormholes()) {
      if (reaches(at, range, w.mouth_a)) gather(w.mouth_b, w.exit_range_ft);
      if (reaches(at, range, w.mouth_b)) gather(w.mouth_a, w.exit_range_ft);
    }
  }
  // Keys sort into registration order; tunnel exits can overlap each other
  // and the direct neighbourhood, so duplicates go too.
  std::sort(gathered_.begin(), gathered_.end());
  gathered_.erase(std::unique(gathered_.begin(), gathered_.end()),
                  gathered_.end());
  std::vector<NodeId> out;
  out.reserve(gathered_.size());
  for (const std::uint64_t key : gathered_) {
    const auto other = static_cast<NodeId>(key);
    if (other != id) out.push_back(other);
  }
  return out;
}

std::vector<NodeId> Network::direct_neighbors(NodeId id) {
  return query(id, /*through_wormholes=*/false);
}

std::vector<NodeId> Network::connected_nodes(NodeId id) {
  return query(id, /*through_wormholes=*/true);
}

void Network::start_all() {
  // Every node's start-time timers ride one sorted lane. No start hook
  // schedules anything, so the lane draws exactly the seqs that one
  // schedule_at per timer, in hook order, would draw (DESIGN.md §17).
  {
    SLD_MEM_SCOPE("scheduler");
    std::vector<PlannedTimer> plan;
    for (Node* n : order_) n->plan_start(plan);
    std::vector<SimTime> times(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) times[i] = plan[i].when;
    scheduler_.schedule_stream(
        std::move(times), [plan = std::move(plan)](std::size_t i) {
          plan[i].node->fire_planned(plan[i]);
        });
  }

  // Fault-plan lifecycle transitions. Only configured plans schedule
  // anything, so fault-free runs keep the seed event sequence bit-for-bit.
  const FaultPlan& plan = channel_.faults().plan();
  for (const auto& w : plan.crashes) {
    Node* n = node(w.node);
    if (n == nullptr) continue;
    scheduler_.schedule_at(w.start, [n]() { n->crash_now(); });
    scheduler_.schedule_at(w.end, [n]() { n->reboot_now(); });
  }
  for (const auto& p : plan.partitions) {
    const auto nodes_a = static_cast<std::uint64_t>(p.side_a.size());
    const SimTime duration = p.end - p.start;
    scheduler_.schedule_at(p.start, [this, nodes_a]() {
      const obs::Tracer& trace = channel_.tracer();
      if (trace.on())
        trace.emit(trace.event("partition.start").f("nodes_a", nodes_a));
    });
    scheduler_.schedule_at(p.end, [this, duration]() {
      const obs::Tracer& trace = channel_.tracer();
      if (trace.on())
        trace.emit(trace.event("partition.heal")
                       .f("duration_ns", static_cast<std::int64_t>(duration)));
    });
  }
}

std::uint64_t Network::run(std::uint64_t max_events) {
  return scheduler_.run(max_events);
}

}  // namespace sld::sim
