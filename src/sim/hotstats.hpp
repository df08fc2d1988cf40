// Hot-path micro-counter sinks for the simulator (the memstats layer's
// deterministic half; see obs/memstats.hpp for allocation telemetry).
//
// A `HotStats` is a bundle of registry-owned instrument pointers the
// scheduler's event queue and the channel write into directly as they run:
// queue depth per push, binary-heap sift distances, nodes scanned per
// transmission (the eavesdropper/observer fan-out the planned spatial
// index will collapse), and packet lifetime (schedule -> delivery
// sim-time). Every field is optional — a default-constructed HotStats (or
// a null pointer where one is wired) records nothing, so the hot paths
// pay one branch per site when the `--memstats` instruments are off and
// runs stay bit-for-bit identical to the seed. All recorded values are
// deterministic functions of (config, seed): they are part of the exact
// regression gate, identical at any `--jobs N`.
#pragma once

#include "obs/metrics.hpp"

namespace sld::sim {

struct HotStats {
  /// Queue depth observed after each push (hot.queue_depth).
  obs::Histogram* queue_depth = nullptr;
  /// Sift distance of each push / pop (hot.sift_up / hot.sift_down).
  obs::Histogram* sift_up = nullptr;
  obs::Histogram* sift_down = nullptr;
  /// Sim-time an event waited from schedule to execution
  /// (hot.event_wait_ns).
  obs::Histogram* event_wait_ns = nullptr;
  /// Nodes examined per transmission scan (hot.scan_fanout): every
  /// registered observer plus the wormhole tunnels tested.
  obs::Histogram* scan_fanout = nullptr;
  /// Sim-time from packet scheduling (an in-flight slot is claimed) to its
  /// delivery callback (the slot is freed) (hot.packet_lifetime_ns).
  obs::Histogram* packet_lifetime_ns = nullptr;

  /// Running totals behind the histograms, for exact gating.
  obs::Counter* sift_up_steps = nullptr;
  obs::Counter* sift_down_steps = nullptr;
  obs::Counter* scans = nullptr;
  obs::Counter* scan_nodes = nullptr;
};

}  // namespace sld::sim
