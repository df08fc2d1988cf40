#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "prop/prop.hpp"
#include "util/rng.hpp"

namespace sld::sim {
namespace {

class CountingNode final : public Node {
 public:
  using Node::Node;
  void plan_start(std::vector<PlannedTimer>&) override { ++started; }
  void on_message(const Delivery&) override { ++received; }
  int started = 0;
  int received = 0;
};

TEST(Network, NodeLookup) {
  Network net;
  auto& a = net.emplace_node<CountingNode>(1, util::Vec2{0, 0}, 100.0);
  EXPECT_EQ(net.node(1), &a);
  EXPECT_EQ(net.node(99), nullptr);
  EXPECT_EQ(net.node_count(), 1u);
}

TEST(Network, StartAllInvokesEveryNode) {
  Network net;
  auto& a = net.emplace_node<CountingNode>(1, util::Vec2{0, 0}, 100.0);
  auto& b = net.emplace_node<CountingNode>(2, util::Vec2{1, 0}, 100.0);
  net.start_all();
  EXPECT_EQ(a.started, 1);
  EXPECT_EQ(b.started, 1);
}

TEST(Network, DirectNeighborsRespectRange) {
  Network net;
  net.emplace_node<CountingNode>(1, util::Vec2{0, 0}, 100.0);
  net.emplace_node<CountingNode>(2, util::Vec2{50, 0}, 100.0);
  net.emplace_node<CountingNode>(3, util::Vec2{150, 0}, 100.0);
  const auto n1 = net.direct_neighbors(1);
  EXPECT_EQ(n1, (std::vector<NodeId>{2}));
  const auto n2 = net.direct_neighbors(2);
  EXPECT_EQ(n2.size(), 2u);
}

TEST(Network, ConnectedNodesIncludeWormholePeers) {
  Network net;
  net.emplace_node<CountingNode>(1, util::Vec2{0, 0}, 100.0);
  net.emplace_node<CountingNode>(2, util::Vec2{900, 900}, 100.0);
  WormholeLink link;
  link.mouth_a = {10, 0};
  link.mouth_b = {890, 900};
  link.exit_range_ft = 100.0;
  net.channel().add_wormhole(link);
  const auto connected = net.connected_nodes(1);
  EXPECT_NE(std::find(connected.begin(), connected.end(), 2u),
            connected.end());
  EXPECT_TRUE(net.direct_neighbors(1).empty());
}

TEST(Network, NeighborQueriesValidateId) {
  Network net;
  EXPECT_THROW(net.direct_neighbors(1), std::invalid_argument);
  EXPECT_THROW(net.connected_nodes(1), std::invalid_argument);
}

TEST(Network, RunExecutesScheduledEvents) {
  Network net;
  int fired = 0;
  net.scheduler().schedule_at(10, [&]() { ++fired; });
  EXPECT_EQ(net.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Network, NodesListPreservesRegistrationOrder) {
  Network net;
  net.emplace_node<CountingNode>(3, util::Vec2{0, 0}, 100.0);
  net.emplace_node<CountingNode>(1, util::Vec2{0, 0}, 100.0);
  net.emplace_node<CountingNode>(2, util::Vec2{0, 0}, 100.0);
  ASSERT_EQ(net.nodes().size(), 3u);
  EXPECT_EQ(net.nodes()[0]->id(), 3u);
  EXPECT_EQ(net.nodes()[1]->id(), 1u);
  EXPECT_EQ(net.nodes()[2]->id(), 2u);
}

TEST(Node, AttachValidation) {
  CountingNode n(1, {0, 0}, 100.0);
  EXPECT_THROW(n.attach(nullptr, nullptr), std::invalid_argument);
}

TEST(Node, RejectsNonPositiveRange) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Row {
    util::Vec2 position;
    double range_ft;
    const char* field;  // named in the error message
  };
  const Row rows[] = {
      {{0, 0}, 0.0, "range_ft"},      {{0, 0}, -5.0, "range_ft"},
      {{0, 0}, kNaN, "range_ft"},     {{0, 0}, kInf, "range_ft"},
      {{0, 0}, -kInf, "range_ft"},    {{kNaN, 0}, 100.0, "position"},
      {{0, kNaN}, 100.0, "position"}, {{kInf, 0}, 100.0, "position"},
      {{0, -kInf}, 100.0, "position"},
  };
  for (const Row& row : rows) {
    try {
      CountingNode n(1, row.position, row.range_ft);
      ADD_FAILURE() << "accepted position (" << row.position.x << ", "
                    << row.position.y << "), range " << row.range_ft;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(row.field), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// The neighbour index against a brute-force scan over the shared predicate.

/// A random topology: nodes in registration order, wormholes, and how many
/// nodes (and wormholes) are in place for the first round of queries; the
/// rest arrive before the second round.
struct Layout {
  std::vector<util::Vec2> positions;
  std::vector<double> ranges;
  std::vector<WormholeLink> wormholes;
  std::size_t early_nodes = 0;
  std::size_t early_wormholes = 0;
};

/// Registration index -> id, descending so that id order is not
/// registration order.
NodeId id_of(const Layout& l, std::size_t i) {
  return static_cast<NodeId>(3 * (l.positions.size() - i) + 1);
}

std::string show_layout(const Layout& l) {
  std::ostringstream os;
  os << l.positions.size() << " nodes (" << l.early_nodes << " early):";
  for (std::size_t i = 0; i < l.positions.size(); ++i)
    os << " (" << l.positions[i].x << ", " << l.positions[i].y << ")r"
       << l.ranges[i];
  os << "; " << l.wormholes.size() << " wormholes (" << l.early_wormholes
     << " early):";
  for (const auto& w : l.wormholes)
    os << " (" << w.mouth_a.x << ", " << w.mouth_a.y << ")<->(" << w.mouth_b.x
       << ", " << w.mouth_b.y << ")r" << w.exit_range_ft;
  return os.str();
}

prop::Gen<Layout> layout_gen() {
  prop::Gen<Layout> g;
  g.generate = [](util::Rng& rng) {
    Layout l;
    const double side = rng.uniform(10.0, 1000.0);
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 150));
    // 0: uniform; 1: a 10 ft lattice, so nodes sit on cell edges (cells
    // are multiples of 25 ft there) and at exactly 100 ft (60-80-100
    // triangles) from each other; 2: every node at one point; 3: a
    // zero-width field.
    const auto shape = rng.uniform_int(0, 3);
    const double range = shape == 1 ? 100.0 : rng.uniform(5.0, 300.0);
    const bool mixed = rng.bernoulli(0.5);
    for (std::size_t i = 0; i < n; ++i) {
      util::Vec2 p;
      switch (shape) {
        case 0:
          p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
          break;
        case 1:
          p = {10.0 * static_cast<double>(rng.uniform_int(0, 40)),
               10.0 * static_cast<double>(rng.uniform_int(0, 40))};
          break;
        case 2:
          p = {side / 3.0, side / 7.0};
          break;
        default:
          p = {side / 2.0, rng.uniform(0.0, side)};
      }
      l.positions.push_back(p);
      const double scale[] = {0.5, 1.0, 2.0, 4.0};
      l.ranges.push_back(mixed ? range * scale[rng.uniform_u64(4)] : range);
    }
    // Mouths anywhere in a box twice the field's size, so some fall
    // outside it; sometimes every exit lands near one spot, so the exits
    // overlap.
    const auto wormholes = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const bool shared_exit = rng.bernoulli(0.5);
    const util::Vec2 exit{rng.uniform(0.0, side), rng.uniform(0.0, side)};
    const auto anywhere = [&rng, side]() {
      return util::Vec2{rng.uniform(-side / 2.0, 1.5 * side),
                        rng.uniform(-side / 2.0, 1.5 * side)};
    };
    for (std::size_t i = 0; i < wormholes; ++i) {
      WormholeLink w;
      w.mouth_a = anywhere();
      w.mouth_b = shared_exit ? exit + util::Vec2{rng.uniform(-20.0, 20.0),
                                                  rng.uniform(-20.0, 20.0)}
                              : anywhere();
      w.exit_range_ft = range * rng.uniform(0.5, 2.0);
      l.wormholes.push_back(w);
    }
    l.early_nodes = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
    l.early_wormholes = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(wormholes)));
    return l;
  };
  g.shrink = [](const Layout& l) {
    std::vector<Layout> out;
    const auto without_node = [&l](std::size_t i) {
      Layout smaller = l;
      smaller.positions.erase(smaller.positions.begin() +
                              static_cast<std::ptrdiff_t>(i));
      smaller.ranges.erase(smaller.ranges.begin() +
                           static_cast<std::ptrdiff_t>(i));
      if (i < smaller.early_nodes) --smaller.early_nodes;
      return smaller;
    };
    for (std::size_t i = 0; i < l.wormholes.size(); ++i) {
      Layout smaller = l;
      smaller.wormholes.erase(smaller.wormholes.begin() +
                              static_cast<std::ptrdiff_t>(i));
      if (i < smaller.early_wormholes) --smaller.early_wormholes;
      out.push_back(std::move(smaller));
    }
    if (l.positions.size() > 1)
      for (std::size_t i = 0; i < l.positions.size(); ++i)
        out.push_back(without_node(i));
    return out;
  };
  g.show = show_layout;
  return g;
}

/// What the index must answer: every other registered node the predicate
/// accepts, in registration order.
std::vector<NodeId> brute_force(const Layout& l, std::size_t registered,
                                std::size_t center,
                                const std::vector<WormholeLink>& wormholes) {
  std::vector<NodeId> out;
  for (std::size_t j = 0; j < registered; ++j) {
    if (j != center &&
        connected(l.positions[center], l.ranges[center], l.positions[j],
                  wormholes))
      out.push_back(id_of(l, j));
  }
  return out;
}

bool index_matches(Network& net, const Layout& l, std::size_t registered,
                   std::size_t wormholes) {
  const std::vector<WormholeLink> none;
  const std::vector<WormholeLink> installed(
      l.wormholes.begin(),
      l.wormholes.begin() + static_cast<std::ptrdiff_t>(wormholes));
  for (std::size_t i = 0; i < registered; ++i) {
    if (net.direct_neighbors(id_of(l, i)) !=
        brute_force(l, registered, i, none))
      return false;
    if (net.connected_nodes(id_of(l, i)) !=
        brute_force(l, registered, i, installed))
      return false;
  }
  return true;
}

TEST(NetworkIndexProperty, MatchesBruteForceScan) {
  EXPECT_TRUE(prop::forall(
      "direct_neighbors/connected_nodes == brute-force scan, same order",
      layout_gen(), [](const Layout& l) {
        Network net;
        const auto add_nodes = [&](std::size_t from, std::size_t to) {
          for (std::size_t i = from; i < to; ++i)
            net.emplace_node<CountingNode>(id_of(l, i), l.positions[i],
                                           l.ranges[i]);
        };
        const auto add_wormholes = [&](std::size_t from, std::size_t to) {
          for (std::size_t i = from; i < to; ++i)
            net.channel().add_wormhole(l.wormholes[i]);
        };
        add_nodes(0, l.early_nodes);
        add_wormholes(0, l.early_wormholes);
        if (!index_matches(net, l, l.early_nodes, l.early_wormholes))
          return false;
        add_nodes(l.early_nodes, l.positions.size());
        add_wormholes(l.early_wormholes, l.wormholes.size());
        return index_matches(net, l, l.positions.size(), l.wormholes.size());
      }));
}

/// Mean grid entries distance-tested per connected_nodes() query, at the
/// paper's density (1,000 nodes per 1,000 ft square, 150 ft range, one
/// wormhole across the field), over a field holding `nodes` nodes.
double candidates_per_query(std::size_t nodes) {
  const double side =
      1000.0 * std::sqrt(static_cast<double>(nodes) / 1000.0);
  Network net;
  util::Rng rng(0x1dea);
  for (std::size_t i = 0; i < nodes; ++i)
    net.emplace_node<CountingNode>(
        static_cast<NodeId>(i + 1),
        util::Vec2{rng.uniform(0.0, side), rng.uniform(0.0, side)}, 150.0);
  WormholeLink link;
  link.mouth_a = {0.25 * side, 0.25 * side};
  link.mouth_b = {0.75 * side, 0.75 * side};
  link.exit_range_ft = 150.0;
  net.channel().add_wormhole(link);
  // About 1,000 queries at every size.
  for (std::size_t i = 0; i < nodes; i += nodes / 1000)
    net.connected_nodes(static_cast<NodeId>(i + 1));
  return static_cast<double>(net.index_candidates()) /
         static_cast<double>(net.index_queries());
}

TEST(NetworkIndex, CandidatesPerQueryStayFlatAsTheFieldGrows) {
  // A scan of every node would examine 16x more candidates at 16k nodes.
  const double small = candidates_per_query(1000);
  const double large = candidates_per_query(16000);
  EXPECT_LE(large, 1.5 * small) << small << " -> " << large;
  EXPECT_LE(small, 1.5 * large) << small << " -> " << large;
  EXPECT_LT(small, 300.0);
}

TEST(NetworkIndex, CountsQueriesAndCandidates) {
  Network net;
  net.emplace_node<CountingNode>(1, util::Vec2{0, 0}, 100.0);
  net.emplace_node<CountingNode>(2, util::Vec2{50, 0}, 100.0);
  EXPECT_EQ(net.index_queries(), 0u);
  net.direct_neighbors(1);
  net.connected_nodes(2);
  EXPECT_EQ(net.index_queries(), 2u);
  // Both nodes share every cell either query reads.
  EXPECT_EQ(net.index_candidates(), 4u);
}

}  // namespace
}  // namespace sld::sim
