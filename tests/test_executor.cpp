// Serial-vs-parallel equivalence suite for the trial executor
// (core/experiment.hpp `jobs`): the headline guarantee is that
// `jobs = N` produces byte-identical results to `jobs = 1` — every
// AggregateSummary statistic, every kept TrialSummary, the trace stream,
// the timeseries stream (separate or aliased with the trace sink), and
// the per-trial metrics_json rollups. The ONLY tolerated difference is
// host wall clock: AggregateSummary::trial_wall_ms and the `phase.*_ms`
// gauges, which reach both metrics_json and any `ts.window` record the
// sampler closes after a phase timer publishes — normalize_metrics()
// masks exactly those before comparing. Fixed cases cover each
// observability wiring; the property
// test sweeps random config shapes (faults, storm, telemetry, SLO rules,
// jobs counts) with SLD_PROP_SEED shrinking repro.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "prop/prop.hpp"
#include "sim/deployment.hpp"

namespace {

using sld::core::AggregateSummary;
using sld::core::ExperimentConfig;
using sld::core::SystemConfig;
using sld::util::RunningStat;

/// Paper density at ~1/5 scale: big enough that trials do real work
/// (probes, localization, revocation), small enough that the property
/// sweep stays in test-suite budget.
SystemConfig small_config(std::uint64_t seed) {
  SystemConfig c;
  c.deployment.total_nodes = 200;
  c.deployment.beacon_count = 20;
  c.deployment.malicious_beacon_count = 2;
  c.deployment.field = sld::util::Rect::square(450.0);
  c.rtt_calibration_samples = 500;
  c.strategy = sld::attack::MaliciousStrategyConfig::with_effectiveness(0.5);
  c.seed = seed;
  return c;
}

/// Masks the wall-clock gauges — the one carve-out in metrics_json AND in
/// `ts.window` records (the sampler snapshots every gauge, including the
/// phase timers, which measure the host rather than the simulation).
/// Each `"phase.<name>_ms":<number>` (name chars [A-Za-z0-9_.], number
/// chars [-+0-9.eE]) becomes `"phase_ms":0`.
std::string normalize_metrics(const std::string& json) {
  const auto is_name = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.';
  };
  const auto is_number = [](char c) {
    return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
           c == 'e' || c == 'E';
  };
  const std::string_view prefix = "\"phase.";
  std::string out;
  std::size_t copied = 0;
  std::size_t at = 0;
  while ((at = json.find(prefix, at)) != std::string::npos) {
    const std::size_t name = at + prefix.size();
    std::size_t i = name;
    while (i < json.size() && is_name(json[i])) ++i;
    const std::size_t number = i + 2;
    std::size_t end = number;
    while (end < json.size() && is_number(json[end])) ++end;
    if (i - name < 4 || json.compare(i - 3, 3, "_ms") != 0 ||
        json.compare(i, 2, "\":") != 0 || end == number) {
      ++at;
      continue;
    }
    out.append(json, copied, at - copied).append("\"phase_ms\":0");
    copied = at = end;
  }
  return out.append(json, copied);
}

/// Applies the wall-clock mask line-by-line to a buffered JSONL stream.
/// Everything else in the stream — ordering included — stays byte-exact.
std::vector<std::string> normalize_lines(
    const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const auto& line : lines) out.push_back(normalize_metrics(line));
  return out;
}

/// Everything one run produces, flattened for exact comparison.
struct RunOutput {
  AggregateSummary agg;
  std::vector<std::string> trace_lines;
  std::vector<std::string> timeseries_lines;
};

struct RunSpec {
  SystemConfig base;
  std::size_t trials = 4;
  bool trace_on = false;
  bool telemetry_on = false;
  /// Telemetry writes into the SAME sink as the trace stream (the
  /// interleaving-preserving case).
  bool alias_sinks = false;
  std::string slo_spec;
};

RunOutput run_with(const RunSpec& spec, std::size_t jobs) {
  RunOutput out;
  sld::obs::MemorySink trace_sink;
  sld::obs::MemorySink timeseries_sink;
  ExperimentConfig e;
  e.base = spec.base;
  e.trials = spec.trials;
  e.jobs = jobs;
  e.keep_trial_summaries = true;
  if (spec.trace_on) e.base.trace_sink = &trace_sink;
  if (spec.telemetry_on) {
    e.base.telemetry.enabled = true;
    e.base.telemetry.sink =
        spec.alias_sinks && spec.trace_on ? &trace_sink : &timeseries_sink;
    if (!spec.slo_spec.empty())
      e.base.slo_rules = sld::obs::parse_slo_spec(spec.slo_spec);
  }
  out.agg = sld::core::run_experiment(e);
  out.trace_lines = trace_sink.take_lines();
  out.timeseries_lines = timeseries_sink.take_lines();
  return out;
}

void append_stat(std::ostringstream& os, const RunningStat& stat) {
  os << std::hexfloat << stat.count() << ',' << stat.mean() << ','
     << stat.variance() << ',' << stat.min() << ',' << stat.max() << ';';
}

/// A lossless textual fingerprint of everything a run produced except the
/// wall-clock carve-out — two runs are byte-equivalent iff their
/// fingerprints compare equal. (Doubles print as hexfloat, so equality is
/// bitwise, not rounded.)
std::string fingerprint(const RunOutput& run) {
  std::ostringstream os;
  const AggregateSummary& a = run.agg;
  append_stat(os, a.detection_rate);
  append_stat(os, a.false_positive_rate);
  append_stat(os, a.affected_per_malicious);
  append_stat(os, a.mean_localization_error_ft);
  append_stat(os, a.requesters_per_malicious);
  append_stat(os, a.sensors_localized);
  append_stat(os, a.revocation_latency_ms);
  append_stat(os, a.radio_energy_uj);
  os << a.trial_wall_ms.count() << ';' << a.total_sched_events << ';'
     << a.total_packets << ';' << a.total_slo_breaches << ';'
     << a.slo_unhealthy_trials << '\n';
  for (const auto& t : a.trials) {
    os << std::hexfloat << t.malicious_revoked << ',' << t.benign_revoked
       << ',' << t.detection_rate << ',' << t.sensors_localized << ','
       << t.sched_events << ',' << t.channel.transmissions << ','
       << t.slo.breaches << ',' << t.slo.healthy << '\n';
    os << normalize_metrics(t.metrics_json) << '\n';
  }
  os << "--trace--\n";
  for (const auto& line : run.trace_lines)
    os << normalize_metrics(line) << '\n';
  os << "--timeseries--\n";
  for (const auto& line : run.timeseries_lines)
    os << normalize_metrics(line) << '\n';
  return os.str();
}

void expect_stat_eq(const RunningStat& serial, const RunningStat& parallel,
                    const char* what) {
  EXPECT_EQ(serial.count(), parallel.count()) << what;
  EXPECT_EQ(serial.mean(), parallel.mean()) << what;
  EXPECT_EQ(serial.variance(), parallel.variance()) << what;
  EXPECT_EQ(serial.min(), parallel.min()) << what;
  EXPECT_EQ(serial.max(), parallel.max()) << what;
}

void expect_equivalent(const RunOutput& serial, const RunOutput& parallel) {
  const AggregateSummary& s = serial.agg;
  const AggregateSummary& p = parallel.agg;
  expect_stat_eq(s.detection_rate, p.detection_rate, "detection_rate");
  expect_stat_eq(s.false_positive_rate, p.false_positive_rate,
                 "false_positive_rate");
  expect_stat_eq(s.affected_per_malicious, p.affected_per_malicious,
                 "affected_per_malicious");
  expect_stat_eq(s.mean_localization_error_ft, p.mean_localization_error_ft,
                 "mean_localization_error_ft");
  expect_stat_eq(s.requesters_per_malicious, p.requesters_per_malicious,
                 "requesters_per_malicious");
  expect_stat_eq(s.sensors_localized, p.sensors_localized,
                 "sensors_localized");
  expect_stat_eq(s.revocation_latency_ms, p.revocation_latency_ms,
                 "revocation_latency_ms");
  expect_stat_eq(s.radio_energy_uj, p.radio_energy_uj, "radio_energy_uj");
  // trial_wall_ms is deliberately NOT compared: host wall clock is the
  // documented nondeterminism carve-out (same count though — one sample
  // per trial).
  EXPECT_EQ(s.trial_wall_ms.count(), p.trial_wall_ms.count());
  EXPECT_EQ(s.total_sched_events, p.total_sched_events);
  EXPECT_EQ(s.total_packets, p.total_packets);
  EXPECT_EQ(s.total_slo_breaches, p.total_slo_breaches);
  EXPECT_EQ(s.slo_unhealthy_trials, p.slo_unhealthy_trials);

  ASSERT_EQ(s.trials.size(), p.trials.size());
  for (std::size_t i = 0; i < s.trials.size(); ++i) {
    const auto& st = s.trials[i];
    const auto& pt = p.trials[i];
    EXPECT_EQ(st.malicious_revoked, pt.malicious_revoked) << "trial " << i;
    EXPECT_EQ(st.benign_revoked, pt.benign_revoked) << "trial " << i;
    EXPECT_EQ(st.detection_rate, pt.detection_rate) << "trial " << i;
    EXPECT_EQ(st.sensors_localized, pt.sensors_localized) << "trial " << i;
    EXPECT_EQ(st.sched_events, pt.sched_events) << "trial " << i;
    EXPECT_EQ(st.channel.transmissions, pt.channel.transmissions)
        << "trial " << i;
    EXPECT_EQ(st.slo.breaches, pt.slo.breaches) << "trial " << i;
    EXPECT_EQ(st.slo.healthy, pt.slo.healthy) << "trial " << i;
    EXPECT_EQ(normalize_metrics(st.metrics_json),
              normalize_metrics(pt.metrics_json))
        << "trial " << i;
  }

  EXPECT_EQ(normalize_lines(serial.trace_lines),
            normalize_lines(parallel.trace_lines));
  EXPECT_EQ(normalize_lines(serial.timeseries_lines),
            normalize_lines(parallel.timeseries_lines));
}

TEST(ExecutorEquivalenceTest, AggregatesMatchSerialAcrossJobsCounts) {
  RunSpec spec;
  spec.base = small_config(42);
  spec.trials = 6;
  const RunOutput serial = run_with(spec, 1);
  for (const std::size_t jobs : {2u, 3u, 6u, 8u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_equivalent(serial, run_with(spec, jobs));
  }
}

TEST(ExecutorEquivalenceTest, JobsZeroMeansHardwareAndStaysEquivalent) {
  RunSpec spec;
  spec.base = small_config(7);
  spec.trials = 4;
  expect_equivalent(run_with(spec, 1), run_with(spec, 0));
}

TEST(ExecutorEquivalenceTest, TraceStreamIsByteIdentical) {
  RunSpec spec;
  spec.base = small_config(11);
  spec.trials = 4;
  spec.trace_on = true;
  const RunOutput serial = run_with(spec, 1);
  ASSERT_FALSE(serial.trace_lines.empty());
  expect_equivalent(serial, run_with(spec, 4));
}

TEST(ExecutorEquivalenceTest, SeparateTimeseriesStreamIsByteIdentical) {
  RunSpec spec;
  spec.base = small_config(13);
  spec.trials = 4;
  spec.trace_on = true;
  spec.telemetry_on = true;
  spec.slo_spec = "tx rate(channel.tx) >= 0; hot rate(channel.tx) > 1e12";
  const RunOutput serial = run_with(spec, 1);
  ASSERT_FALSE(serial.timeseries_lines.empty());
  expect_equivalent(serial, run_with(spec, 4));
}

TEST(ExecutorEquivalenceTest, AliasedSinkPreservesInterleaving) {
  // Telemetry and trace share one sink: ts.meta / ts.window records must
  // land between the same trace records as in the serial run, not merely
  // in some order.
  RunSpec spec;
  spec.base = small_config(17);
  spec.trials = 5;
  spec.trace_on = true;
  spec.telemetry_on = true;
  spec.alias_sinks = true;
  const RunOutput serial = run_with(spec, 1);
  ASSERT_FALSE(serial.trace_lines.empty());
  bool saw_ts_line = false;
  for (const auto& line : serial.trace_lines)
    if (line.find("\"ts.") != std::string::npos) saw_ts_line = true;
  EXPECT_TRUE(saw_ts_line) << "aliased stream carries no telemetry";
  expect_equivalent(serial, run_with(spec, 3));
}

TEST(ExecutorEquivalenceTest, MoreJobsThanTrialsClampsAndMatches) {
  RunSpec spec;
  spec.base = small_config(19);
  spec.trials = 2;
  expect_equivalent(run_with(spec, 1), run_with(spec, 16));
}

TEST(ExecutorEquivalenceTest, PropRandomConfigShapesStayEquivalent) {
  // One 64-bit case seed drives every knob: deployment seed, trial count,
  // jobs, fault injection, alert storm, telemetry wiring. The predicate
  // reruns the identical experiment at jobs=1 and jobs=N and demands the
  // full fingerprint match; on failure prop shrinks toward the smallest
  // failing shape and prints the SLD_PROP_SEED repro line.
  auto gen = sld::prop::int_range(0, (1LL << 40));
  sld::prop::Config cfg;
  cfg.iterations = 6;
  sld::prop::forall<std::int64_t>(
      "jobs=N output equals jobs=1 output", gen,
      [](const std::int64_t& knobs) {
        const auto u = static_cast<std::uint64_t>(knobs);
        RunSpec spec;
        spec.base = small_config(1000 + (u & 0xffff));
        spec.trials = 2 + ((u >> 16) & 3);          // 2..5
        const std::size_t jobs = 2 + ((u >> 18) & 3);  // 2..5
        if ((u >> 20) & 1)
          spec.base.faults.loss_probability = 0.05;
        if ((u >> 21) & 1) {
          spec.base.collusion = true;
          spec.base.storm.flood_alerts_per_colluder = 20;
        }
        spec.trace_on = ((u >> 22) & 1) != 0;
        spec.telemetry_on = ((u >> 23) & 1) != 0;
        spec.alias_sinks = ((u >> 24) & 1) != 0;
        if (spec.telemetry_on && ((u >> 25) & 1))
          spec.slo_spec = "tx rate(channel.tx) >= 0";
        return fingerprint(run_with(spec, 1)) ==
               fingerprint(run_with(spec, jobs));
      },
      cfg);
}

}  // namespace
