// Benchmark workloads and the timed, output-checked trial every measurement
// is built from.
//
// A workload is a fixed cycle of trial configurations derived from the
// --seed argument alone; a run repeats the cycle. Each trial goes through
// the public API of sld::core::SecureLocalizationSystem only — constructor,
// run(), destructor — and the benchmark times those three calls from the
// outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds between two steady-clock readings.
inline std::int64_t elapsed_ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// In-memory span log (name, start, end, parent, trace id). Spans are
/// recorded around calls into the program, never inside it, and written out
/// once when the benchmark ends.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}

  /// Opens a span and returns its id (0 when the log is off).
  std::uint64_t open(const char* name, std::uint64_t parent,
                     std::uint64_t trace);
  void close(std::uint64_t id);

  /// Chrome trace-event JSON ("X" events, microseconds), loadable by
  /// chrome://tracing and Perfetto.
  std::string to_json() const;

 private:
  struct Span {
    const char* name;
    std::uint64_t parent;
    std::uint64_t trace;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct Workload {
  std::string name;
  /// The trial cycle. Entry i is a pure function of (name, seed, i).
  std::vector<sld::core::SystemConfig> configs;
  /// Generator parameters as a JSON object; run.py checks them against the
  /// copy recorded in perfbench/spec.json.
  std::string params_json;
};

/// Throws std::invalid_argument for an unknown workload name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// What one trial measured and produced. Counts are exact functions of the
/// trial's config; times are wall-clock.
struct TrialRecord {
  std::size_t cfg = 0;
  double ctor_ms = 0.0;
  double run_ms = 0.0;
  double dtor_ms = 0.0;
  /// Outcome digest: detection and false-positive rates, localized count,
  /// revoked set and the detection funnel counts.
  std::string digest;
  /// First broken output invariant (empty when every check passed).
  std::string error;

  std::uint64_t events = 0;
  std::uint64_t max_pending = 0;
  std::uint64_t sift_steps = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t probes = 0;
  std::uint64_t ignored_wormhole = 0;
  std::uint64_t ignored_replay = 0;
  std::uint64_t detection_alerts = 0;
  std::uint64_t alerts = 0;  // honest + forged submissions
  std::uint64_t sensors_localized = 0;
  std::uint64_t ingest_submitted = 0;
  std::uint64_t ingest_committed = 0;
  bool ingest_enabled = false;
  /// Memstats roll-up (zero unless the config had memstats on).
  std::uint64_t allocs = 0;
  std::uint64_t scans = 0;
  std::uint64_t scan_nodes = 0;
  /// The program's instrument snapshot (kept only when asked for).
  std::string metrics_json;
};

/// Constructs, runs and destroys one system. A thrown exception becomes
/// the record's error. With `spans` on, records trial -> setup/run/teardown.
TrialRecord run_trial(const sld::core::SystemConfig& config, std::size_t cfg,
                      bool keep_metrics, SpanLog& spans);

/// Appends `v` as a JSON number with every significant digit.
void append_number(std::string& out, double v);

}  // namespace perfbench
