#include "sim/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sld::sim {

namespace {
std::vector<const NodeSpec*> filter(const std::vector<NodeSpec>& nodes,
                                    bool want_beacon, int want_malicious) {
  std::vector<const NodeSpec*> out;
  for (const auto& n : nodes) {
    if (n.beacon != want_beacon) continue;
    if (want_malicious >= 0 && n.malicious != (want_malicious != 0)) continue;
    out.push_back(&n);
  }
  return out;
}
}  // namespace

std::vector<const NodeSpec*> Deployment::beacons() const {
  return filter(nodes, true, -1);
}

std::vector<const NodeSpec*> Deployment::benign_beacons() const {
  return filter(nodes, true, 0);
}

std::vector<const NodeSpec*> Deployment::malicious_beacons() const {
  return filter(nodes, true, 1);
}

std::vector<const NodeSpec*> Deployment::sensors() const {
  return filter(nodes, false, -1);
}

const NodeSpec* Deployment::find(NodeId id) const {
  for (const auto& n : nodes)
    if (n.id == id) return &n;
  return nullptr;
}

namespace {
void validate_config(const DeploymentConfig& config) {
  if (config.beacon_count > config.total_nodes)
    throw std::invalid_argument("deployment: more beacons than nodes");
  if (config.malicious_beacon_count > config.beacon_count)
    throw std::invalid_argument(
        "deployment: more malicious beacons than beacons");
  if (config.field.area() <= 0.0)
    throw std::invalid_argument("deployment: empty field");
  if (!(config.comm_range_ft > 0.0))
    throw std::invalid_argument("deployment: bad comm range");
}
}  // namespace

Deployment deploy_random(const DeploymentConfig& config, util::Rng& rng) {
  validate_config(config);

  Deployment d;
  d.config = config;
  d.nodes.reserve(config.total_nodes);

  const auto malicious_idx = rng.sample_indices(config.beacon_count,
                                                config.malicious_beacon_count);
  std::vector<bool> is_malicious(config.beacon_count, false);
  for (const auto i : malicious_idx) is_malicious[i] = true;

  for (std::size_t i = 0; i < config.beacon_count; ++i) {
    NodeSpec spec;
    spec.id = kFirstBeaconId + static_cast<NodeId>(i);
    spec.position = {rng.uniform(config.field.x0, config.field.x1),
                     rng.uniform(config.field.y0, config.field.y1)};
    spec.beacon = true;
    spec.malicious = is_malicious[i];
    d.nodes.push_back(spec);
  }
  const std::size_t sensor_count = config.total_nodes - config.beacon_count;
  for (std::size_t i = 0; i < sensor_count; ++i) {
    NodeSpec spec;
    spec.id = kNonBeaconIdBase + static_cast<NodeId>(i);
    spec.position = {rng.uniform(config.field.x0, config.field.x1),
                     rng.uniform(config.field.y0, config.field.y1)};
    d.nodes.push_back(spec);
  }
  return d;
}

Deployment deploy_grid(const DeploymentConfig& config, util::Rng& rng) {
  validate_config(config);

  Deployment d;
  d.config = config;
  d.nodes.reserve(config.total_nodes);

  // Near-square lattice with cells sized to hold every node.
  const auto cols = static_cast<std::size_t>(std::ceil(
      std::sqrt(static_cast<double>(config.total_nodes) *
                config.field.width() / config.field.height())));
  const std::size_t rows =
      (config.total_nodes + cols - 1) / std::max<std::size_t>(cols, 1);
  const double dx = config.field.width() / static_cast<double>(cols);
  const double dy = config.field.height() / static_cast<double>(rows);

  const auto malicious_idx = rng.sample_indices(config.beacon_count,
                                                config.malicious_beacon_count);
  std::vector<bool> is_malicious(config.beacon_count, false);
  for (const auto i : malicious_idx) is_malicious[i] = true;

  for (std::size_t i = 0; i < config.total_nodes; ++i) {
    const std::size_t r = i / cols;
    const std::size_t c = i % cols;
    NodeSpec spec;
    spec.position = {config.field.x0 + (static_cast<double>(c) + 0.5) * dx,
                     config.field.y0 + (static_cast<double>(r) + 0.5) * dy};
    if (i < config.beacon_count) {
      spec.id = kFirstBeaconId + static_cast<NodeId>(i);
      spec.beacon = true;
      spec.malicious = is_malicious[i];
    } else {
      spec.id = kNonBeaconIdBase +
                static_cast<NodeId>(i - config.beacon_count);
    }
    d.nodes.push_back(spec);
  }
  return d;
}

}  // namespace sld::sim
