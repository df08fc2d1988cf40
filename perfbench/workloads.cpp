#include "workloads.hpp"

#include <bit>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/secure_localization.hpp"

namespace perfbench {

namespace {

using sld::core::SystemConfig;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One cycle of trials over an even grid of the attacker effectiveness P
/// (Figure 12's x axis): trial i runs P = (i + 1) / trials.
std::vector<SystemConfig> p_grid(const SystemConfig& base, std::size_t trials,
                                 std::uint64_t seed, std::uint64_t salt) {
  std::vector<SystemConfig> out;
  const std::uint64_t root = splitmix64(seed ^ salt);
  for (std::size_t i = 0; i < trials; ++i) {
    SystemConfig c = base;
    c.strategy = sld::attack::MaliciousStrategyConfig::with_effectiveness(
        static_cast<double>(i + 1) / static_cast<double>(trials));
    c.seed = splitmix64(root + i);
    out.push_back(c);
  }
  return out;
}

std::string params_of(const SystemConfig& c, std::size_t trials) {
  const auto& d = c.deployment;
  std::string j = "{";
  const auto field = [&j](const char* key, const std::string& value) {
    if (j.size() > 1) j += ",";
    j += "\"";
    j += key;
    j += "\":";
    j += value;
  };
  const auto num = [](double v) {
    std::string s;
    append_number(s, v);
    return s;
  };
  const auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  field("trials_per_cycle", std::to_string(trials));
  field("p_grid", "\"(i+1)/" + std::to_string(trials) + "\"");
  field("nodes", std::to_string(d.total_nodes));
  field("beacons", std::to_string(d.beacon_count));
  field("malicious", std::to_string(d.malicious_beacon_count));
  field("field_ft", num(d.field.width()));
  field("range_ft", num(d.comm_range_ft));
  field("paper_wormhole", flag(c.paper_wormhole));
  field("extra_random_wormholes", std::to_string(c.extra_random_wormholes));
  field("detecting_ids", std::to_string(c.detecting_ids));
  field("tau1", std::to_string(c.revocation.report_quota));
  field("tau2", std::to_string(c.revocation.alert_threshold));
  field("collusion", flag(c.collusion));
  field("flood_alerts_per_colluder",
        std::to_string(c.storm.flood_alerts_per_colluder));
  field("zipf_exponent", num(c.storm.zipf_exponent));
  field("ingest_shards", std::to_string(c.ingest.shard.count));
  field("admission", flag(c.ingest.admission.enabled));
  field("lifecycle", flag(c.revocation.lifecycle.enabled));
  field("fallback", flag(c.fallback.enabled));
  return j + "}";
}

/// Output invariants that hold for any seed. Returns the first one broken
/// (empty when all hold) and collects the revoked beacons.
std::string check_outputs(const SystemConfig& config,
                          const sld::core::TrialSummary& s,
                          const sld::core::SecureLocalizationSystem& sys,
                          std::vector<sld::sim::NodeId>& revoked) {
  const auto& ch = s.channel;
  if (ch.deliveries + ch.losses + ch.dropped_by_fault + ch.crashed_rx_drops +
          ch.partition_drops !=
      ch.delivery_attempts + ch.duplicates)
    return "channel conservation broken";
  if (s.sensors_localized + s.sensors_unlocalized != s.sensors)
    return "localized + unlocalized != sensors";
  for (const double rate : {s.detection_rate, s.false_positive_rate})
    if (!(rate >= 0.0 && rate <= 1.0)) return "rate outside [0,1]";
  const auto& bs = sys.context().bs();
  for (const auto& spec : sys.deployment().nodes) {
    if (!spec.beacon || !bs.is_revoked(spec.id)) continue;
    revoked.push_back(spec.id);
    if (bs.alert_counter(spec.id) <= config.revocation.alert_threshold)
      return "revoked beacon " + std::to_string(spec.id) +
             " has alert counter <= tau2";
  }
  return {};
}

std::string outcome_digest(const sld::core::TrialSummary& s,
                           const std::vector<sld::sim::NodeId>& revoked) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  fold(std::bit_cast<std::uint64_t>(s.detection_rate));
  fold(std::bit_cast<std::uint64_t>(s.false_positive_rate));
  fold(s.sensors_localized);
  fold(revoked.size());
  for (const auto id : revoked) fold(id);
  fold(s.raw.probes_sent);
  fold(s.raw.probe_ignored_wormhole);
  fold(s.raw.probe_ignored_local_replay);
  fold(s.raw.alerts_submitted);
  fold(s.raw.collusion_alerts_submitted);
  fold(s.sched_events);
  fold(s.channel.transmissions);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(elapsed_ns(a, b)) / 1e6;
}

}  // namespace

std::uint64_t SpanLog::open(const char* name, std::uint64_t parent,
                            std::uint64_t trace) {
  if (!on_) return 0;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, parent, trace == 0 ? id : trace,
                    elapsed_ns(origin_, Clock::now()), -1});
  return id;
}

void SpanLog::close(std::uint64_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = elapsed_ns(origin_, Clock::now());
}

std::string SpanLog::to_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":\"";
    out += s.name;
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    append_number(out, static_cast<double>(s.start_ns) / 1e3);
    out += ",\"dur\":";
    append_number(out, static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += ",\"args\":{\"id\":" + std::to_string(i + 1) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"trace\":" + std::to_string(s.trace) + "}}";
  }
  return out + "]}\n";
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  SystemConfig base;  // the paper's §4 configuration
  std::size_t trials = 0;
  std::uint64_t salt = 0;
  if (name == "paper") {
    trials = 20;  // Figure 12's P grid, step 0.05
    salt = 0x7061706572ULL;
  } else if (name == "alert_storm") {
    base.collusion = true;
    base.storm.flood_alerts_per_colluder = 20'000;
    base.storm.zipf_exponent = 1.0;
    base.ingest.shard.count = 4;
    base.ingest.admission.enabled = true;
    base.revocation.lifecycle.enabled = true;
    base.fallback.enabled = true;
    trials = 10;
    salt = 0x73746f726dULL;
  } else if (name == "dense_4k") {
    // Four times the paper's nodes at its density, one wormhole per 1,000
    // nodes.
    base.deployment.total_nodes = 4000;
    base.deployment.beacon_count = 400;
    base.deployment.malicious_beacon_count = 40;
    base.deployment.field = sld::util::Rect::square(2000.0);
    base.extra_random_wormholes = 3;
    trials = 5;
    salt = 0x64656e7365ULL;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  Workload w;
  w.name = name;
  w.configs = p_grid(base, trials, seed, salt);
  w.params_json = params_of(base, trials);
  return w;
}

TrialRecord run_trial(const SystemConfig& config, std::size_t cfg,
                      bool keep_metrics, SpanLog& spans) {
  TrialRecord r;
  r.cfg = cfg;
  const std::uint64_t trial = spans.open("trial", 0, 0);
  try {
    std::uint64_t span = spans.open("setup", trial, trial);
    const auto t0 = Clock::now();
    auto sys = std::make_unique<sld::core::SecureLocalizationSystem>(config);
    const auto t1 = Clock::now();
    spans.close(span);

    span = spans.open("run", trial, trial);
    const auto t2 = Clock::now();
    const sld::core::TrialSummary s = sys->run();
    const auto t3 = Clock::now();
    spans.close(span);

    std::vector<sld::sim::NodeId> revoked;
    r.error = check_outputs(config, s, *sys, revoked);
    r.digest = outcome_digest(s, revoked);
    const auto& sched = sys->network().scheduler();
    r.max_pending = sched.max_pending();
    r.sift_steps = sched.sift_up_steps() + sched.sift_down_steps();

    span = spans.open("teardown", trial, trial);
    const auto t4 = Clock::now();
    sys.reset();
    const auto t5 = Clock::now();
    spans.close(span);

    r.ctor_ms = ms_between(t0, t1);
    r.run_ms = ms_between(t2, t3);
    r.dtor_ms = ms_between(t4, t5);
    r.events = s.sched_events;
    r.transmissions = s.channel.transmissions;
    r.probes = s.raw.probes_sent;
    r.ignored_wormhole = s.raw.probe_ignored_wormhole;
    r.ignored_replay = s.raw.probe_ignored_local_replay;
    r.detection_alerts = s.raw.alerts_submitted;
    r.alerts = s.raw.alerts_submitted + s.raw.collusion_alerts_submitted;
    r.sensors_localized = s.sensors_localized;
    r.ingest_enabled = config.ingest.enabled();
    r.ingest_submitted = s.ingest.submitted;
    r.ingest_committed = s.ingest.committed;
    r.allocs = s.memhot.allocs;
    r.scans = s.memhot.scans;
    r.scan_nodes = s.memhot.scan_nodes;
    if (keep_metrics) r.metrics_json = s.metrics_json;
  } catch (const std::exception& e) {
    r.error = std::string("exception: ") + e.what();
  }
  spans.close(trial);
  return r;
}

}  // namespace perfbench
