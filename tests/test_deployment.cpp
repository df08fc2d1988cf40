#include "sim/deployment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

namespace sld::sim {
namespace {

DeploymentConfig paper_config() { return DeploymentConfig{}; }

TEST(Deployment, PaperDefaults) {
  const DeploymentConfig c = paper_config();
  EXPECT_EQ(c.total_nodes, 1000u);
  EXPECT_EQ(c.beacon_count, 100u);
  EXPECT_EQ(c.malicious_beacon_count, 10u);
  EXPECT_EQ(c.comm_range_ft, 150.0);
  EXPECT_EQ(c.field.area(), 1e6);
}

TEST(Deployment, CountsMatchConfig) {
  util::Rng rng(1);
  const auto d = deploy_random(paper_config(), rng);
  EXPECT_EQ(d.nodes.size(), 1000u);
  EXPECT_EQ(d.beacons().size(), 100u);
  EXPECT_EQ(d.malicious_beacons().size(), 10u);
  EXPECT_EQ(d.benign_beacons().size(), 90u);
  EXPECT_EQ(d.sensors().size(), 900u);
}

TEST(Deployment, AllNodesInsideField) {
  util::Rng rng(2);
  const auto d = deploy_random(paper_config(), rng);
  for (const auto& n : d.nodes) EXPECT_TRUE(d.config.field.contains(n.position));
}

TEST(Deployment, IdsAreUniqueAndPartitioned) {
  util::Rng rng(3);
  const auto d = deploy_random(paper_config(), rng);
  std::set<NodeId> ids;
  for (const auto& n : d.nodes) {
    EXPECT_TRUE(ids.insert(n.id).second);
    if (n.beacon) {
      EXPECT_TRUE(is_beacon_id(n.id));
    } else {
      EXPECT_FALSE(is_beacon_id(n.id));
      EXPECT_GE(n.id, kNonBeaconIdBase);
    }
  }
}

TEST(Deployment, MaliciousAreBeacons) {
  util::Rng rng(4);
  const auto d = deploy_random(paper_config(), rng);
  for (const auto* m : d.malicious_beacons()) EXPECT_TRUE(m->beacon);
}

TEST(Deployment, MaliciousSubsetVariesWithSeed) {
  util::Rng rng1(5), rng2(6);
  const auto d1 = deploy_random(paper_config(), rng1);
  const auto d2 = deploy_random(paper_config(), rng2);
  std::set<NodeId> m1, m2;
  for (const auto* m : d1.malicious_beacons()) m1.insert(m->id);
  for (const auto* m : d2.malicious_beacons()) m2.insert(m->id);
  EXPECT_NE(m1, m2);
}

TEST(Deployment, DeterministicForSameSeed) {
  util::Rng rng1(7), rng2(7);
  const auto d1 = deploy_random(paper_config(), rng1);
  const auto d2 = deploy_random(paper_config(), rng2);
  ASSERT_EQ(d1.nodes.size(), d2.nodes.size());
  for (std::size_t i = 0; i < d1.nodes.size(); ++i) {
    EXPECT_EQ(d1.nodes[i].id, d2.nodes[i].id);
    EXPECT_EQ(d1.nodes[i].position, d2.nodes[i].position);
    EXPECT_EQ(d1.nodes[i].malicious, d2.nodes[i].malicious);
  }
}

TEST(Deployment, FindLocatesNodes) {
  util::Rng rng(8);
  const auto d = deploy_random(paper_config(), rng);
  const auto* first = d.find(d.nodes.front().id);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, d.nodes.front().id);
  EXPECT_EQ(d.find(0xdeadbeef), nullptr);
}

TEST(Deployment, ValidationRejectsBadConfigs) {
  util::Rng rng(9);
  DeploymentConfig c = paper_config();
  c.beacon_count = c.total_nodes + 1;
  EXPECT_THROW(deploy_random(c, rng), std::invalid_argument);

  c = paper_config();
  c.malicious_beacon_count = c.beacon_count + 1;
  EXPECT_THROW(deploy_random(c, rng), std::invalid_argument);

  c = paper_config();
  c.comm_range_ft = 0.0;
  EXPECT_THROW(deploy_random(c, rng), std::invalid_argument);
  c.comm_range_ft = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(deploy_random(c, rng), std::invalid_argument);

  c = paper_config();
  c.field = util::Rect{0, 0, 0, 0};
  EXPECT_THROW(deploy_random(c, rng), std::invalid_argument);
}

TEST(Deployment, ZeroMaliciousAllowed) {
  util::Rng rng(10);
  DeploymentConfig c = paper_config();
  c.malicious_beacon_count = 0;
  const auto d = deploy_random(c, rng);
  EXPECT_TRUE(d.malicious_beacons().empty());
  EXPECT_EQ(d.benign_beacons().size(), 100u);
}

TEST(GridDeployment, CountsAndContainment) {
  util::Rng rng(20);
  const auto d = deploy_grid(paper_config(), rng);
  EXPECT_EQ(d.nodes.size(), 1000u);
  EXPECT_EQ(d.beacons().size(), 100u);
  EXPECT_EQ(d.malicious_beacons().size(), 10u);
  for (const auto& n : d.nodes) EXPECT_TRUE(d.config.field.contains(n.position));
}

TEST(GridDeployment, PositionsFormLattice) {
  util::Rng rng(21);
  DeploymentConfig c = paper_config();
  c.total_nodes = 100;
  c.beacon_count = 10;
  c.malicious_beacon_count = 0;
  const auto d = deploy_grid(c, rng);
  // 10x10 lattice over 1000 ft: cells of 100 ft, centres at 50, 150, ...
  for (const auto& n : d.nodes) {
    EXPECT_NEAR(std::fmod(n.position.x - 50.0, 100.0), 0.0, 1e-9);
    EXPECT_NEAR(std::fmod(n.position.y - 50.0, 100.0), 0.0, 1e-9);
  }
}

TEST(GridDeployment, PositionsDeterministicMaliciousSeeded) {
  util::Rng rng1(22), rng2(23);
  const auto d1 = deploy_grid(paper_config(), rng1);
  const auto d2 = deploy_grid(paper_config(), rng2);
  for (std::size_t i = 0; i < d1.nodes.size(); ++i)
    EXPECT_EQ(d1.nodes[i].position, d2.nodes[i].position);
  std::set<NodeId> m1, m2;
  for (const auto* m : d1.malicious_beacons()) m1.insert(m->id);
  for (const auto* m : d2.malicious_beacons()) m2.insert(m->id);
  EXPECT_NE(m1, m2);  // malicious subset still randomized
}

TEST(Deployment, UniformCoverage) {
  // Coarse chi-square-ish check: each quadrant gets roughly a quarter.
  util::Rng rng(11);
  DeploymentConfig c = paper_config();
  c.total_nodes = 4000;
  c.beacon_count = 100;
  const auto d = deploy_random(c, rng);
  int q[4] = {0, 0, 0, 0};
  for (const auto& n : d.nodes) {
    const int idx = (n.position.x > 500.0 ? 1 : 0) +
                    (n.position.y > 500.0 ? 2 : 0);
    ++q[idx];
  }
  for (const int count : q) {
    EXPECT_GT(count, 850);
    EXPECT_LT(count, 1150);
  }
}

}  // namespace
}  // namespace sld::sim
