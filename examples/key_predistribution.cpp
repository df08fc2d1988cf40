// Where the pairwise keys come from. The paper assumes every two neighbours
// share a unique pairwise key and that a compromised node gives away only
// its own keys; the simulator models that outcome directly
// (crypto::PairwiseKeyManager). This example deploys the paper's network and
// establishes the keys with two of the predistribution schemes the paper
// cites, at the same per-node memory (50 stored words):
//
//   key_pool         Eschenauer-Gligor random key rings [EG02]
//   polynomial_pool  Liu-Ning polynomial-pool shares (CCS'03, reference [17])
//
// For each scheme it prints the share of neighbour pairs that get a direct
// key, checks both ends derive the same key, and counts how many honest
// links the 10 compromised beacons' extracted key material exposes.
//
//   $ ./key_predistribution
//
#include <cstdio>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "crypto/key_pool.hpp"
#include "crypto/polynomial_pool.hpp"
#include "sim/deployment.hpp"
#include "util/rng.hpp"

namespace {

using namespace sld;

struct LinkTally {
  std::size_t neighbour_pairs = 0;
  std::size_t direct = 0;      // pairs sharing key material
  std::size_t mismatched = 0;  // ends derived different keys (must be 0)
  std::size_t exposed = 0;     // honest direct links the captured nodes break

  void print(const char* scheme) const {
    std::printf("%-16s %6.1f%% direct   %zu mismatched   %5.1f%% exposed\n",
                scheme, 100.0 * static_cast<double>(direct) /
                            static_cast<double>(neighbour_pairs),
                mismatched,
                100.0 * static_cast<double>(exposed) /
                    static_cast<double>(direct));
  }
};

const crypto::PolynomialShare& share_of(
    const std::vector<crypto::PolynomialShare>& shares, std::uint32_t poly) {
  for (const auto& s : shares)
    if (s.poly_id() == poly) return s;
  throw std::logic_error("share_of: polynomial not held");
}

}  // namespace

int main() {
  util::Rng rng(2026);
  const sim::Deployment dep = sim::deploy_random(sim::DeploymentConfig{}, rng);
  const auto& nodes = dep.nodes;
  const std::size_t n = nodes.size();

  // Equal memory: a 50-key ring, or 5 shares of degree-9 polynomials.
  const crypto::KeyPool key_pool(1000, rng);
  const crypto::PolynomialPool poly_pool(20, 9, rng);
  std::vector<crypto::KeyRing> rings;
  std::vector<std::vector<crypto::PolynomialShare>> shares;
  for (const auto& node : nodes) {
    rings.emplace_back(key_pool.draw_ring(50, rng), key_pool);
    shares.push_back(poly_pool.provision(node.id, 5, rng));
  }

  // The compromised beacons give up everything they hold. A pool key is then
  // known outright; a polynomial only once more than t of its shares are.
  std::set<crypto::PoolKeyId> captured_keys;
  std::vector<std::size_t> captured_shares(poly_pool.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!nodes[i].malicious) continue;
    captured_keys.insert(rings[i].ids().begin(), rings[i].ids().end());
    for (const auto& s : shares[i]) ++captured_shares[s.poly_id()];
  }

  LinkTally eg, poly;
  const double range2 = dep.config.comm_range_ft * dep.config.comm_range_ft;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (util::distance_squared(nodes[a].position, nodes[b].position) >
          range2)
        continue;
      const bool honest = !nodes[a].malicious && !nodes[b].malicious;
      ++eg.neighbour_pairs;
      ++poly.neighbour_pairs;

      if (const auto k = rings[a].shared_key_id(rings[b])) {
        ++eg.direct;
        if (rings[a].link_key(*k, nodes[a].id, nodes[b].id) !=
            rings[b].link_key(*k, nodes[b].id, nodes[a].id))
          ++eg.mismatched;
        if (honest && captured_keys.count(*k) != 0) ++eg.exposed;
      }
      if (const auto p = crypto::shared_polynomial(shares[a], shares[b])) {
        ++poly.direct;
        if (share_of(shares[a], *p).pairwise_key(nodes[b].id) !=
            share_of(shares[b], *p).pairwise_key(nodes[a].id))
          ++poly.mismatched;
        if (honest && captured_shares[*p] > poly_pool.degree()) ++poly.exposed;
      }
    }
  }

  std::printf("=== pairwise key predistribution: %zu nodes, %zu captured ===\n",
              n, dep.malicious_beacons().size());
  std::printf("EG analytic direct-key probability: %.1f%%\n\n",
              100.0 * crypto::KeyPool::share_probability(1000, 50));
  eg.print("key_pool");
  poly.print("polynomial_pool");
  return eg.mismatched + poly.mismatched == 0 ? 0 : 1;
}
