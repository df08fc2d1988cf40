// Per-layer micro-workloads. Each one calls a single layer's public
// functions with inputs taken from the workload it explains: the trial's
// deployment and provisioned context, its peak event-queue depth, its
// references per sensor and its captured alert stream.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/secure_localization.hpp"
#include "localization/location_reference.hpp"
#include "sim/message.hpp"
#include "sim/time.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One alert as it reached the base-station ingest path.
struct AlertArrival {
  sld::sim::SimTime t = 0;
  sld::sim::NodeId reporter = 0;
  sld::sim::NodeId target = 0;
  std::uint64_t nonce = 0;
};

/// Runs one untimed trial of `config` with a trace sink that keeps only the
/// alert deliveries to the base-station ingest path, in arrival order.
std::vector<AlertArrival> capture_alert_stream(
    const sld::core::SystemConfig& config);

struct MicroResult {
  const char* name = "";
  const char* unit = "ns";
  /// Per-batch cost of one operation, in `unit`: median and quartiles.
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t batch_ops = 0;  // operations per timed batch
  double allocs_per_op = 0.0;
};

/// Accumulates wall time (and, with memstats on, allocations) over the
/// start/stop sections of one batch, so per-batch set-up is excluded.
class Meter {
 public:
  void start();
  void stop();
  std::int64_t ns() const { return ns_; }
  std::uint64_t allocs() const { return allocs_; }

 private:
  Clock::time_point t0_;
  std::uint64_t allocs0_ = 0;
  std::int64_t ns_ = 0;
  std::uint64_t allocs_ = 0;
};

class MicroSuite {
 public:
  /// Builds (without running) one system for `config` and derives every
  /// micro-workload's inputs from it.
  MicroSuite(const sld::core::SystemConfig& config, std::size_t max_pending,
             std::vector<AlertArrival> alerts);
  ~MicroSuite();
  MicroSuite(const MicroSuite&) = delete;
  MicroSuite& operator=(const MicroSuite&) = delete;

  /// Times every micro-workload for about `budget_s` seconds in total, one
  /// span per batch.
  std::vector<MicroResult> time(double budget_s, SpanLog& spans);

  /// Runs one batch of each micro-workload, at the size time() chose, with
  /// allocation counting on, and fills allocs_per_op. Memstats must be on.
  void count_allocs(std::vector<MicroResult>& results);

  /// Mean location references (reachable beacons) per sensor.
  double refs_per_sensor() const { return refs_per_sensor_; }

 private:
  /// Runs `n` operations (or whole units of work covering at least `n`),
  /// metering only the measured section; returns the operations done.
  using Batch = std::function<std::uint64_t(std::uint64_t n, Meter& m)>;
  struct Micro {
    const char* name;
    const char* unit;
    double ns_per_unit;
    Batch batch;
  };
  void build_micros();

  sld::core::SystemConfig config_;
  std::size_t max_pending_;
  std::vector<AlertArrival> alerts_;
  std::unique_ptr<sld::core::SecureLocalizationSystem> sys_;
  /// (sender, receiver) pairs that are connected in the deployment.
  std::vector<std::pair<sld::sim::NodeId, sld::sim::NodeId>> pairs_;
  /// Reference sets of the sensors with at least three references, honest
  /// and with the malicious beacons' ranges inflated.
  std::vector<sld::localization::LocationReferences> honest_refs_;
  std::vector<sld::localization::LocationReferences> lying_refs_;
  double refs_per_sensor_ = 0.0;
  std::vector<Micro> micros_;
};

}  // namespace perfbench
