#include "micro.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string_view>

#include "crypto/detecting_ids.hpp"
#include "crypto/mac.hpp"
#include "localization/multilateration.hpp"
#include "localization/robust.hpp"
#include "obs/memstats.hpp"
#include "obs/trace.hpp"
#include "ranging/rtt.hpp"
#include "revocation/base_station.hpp"
#include "revocation/failover.hpp"
#include "revocation/shard.hpp"
#include "sim/event.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using sld::sim::NodeId;

/// Every result folds into this, so no measured call can be optimized away.
volatile std::uint64_t g_sink = 0;

/// Allocation scopes of the program plus the benchmark's own catch-all.
constexpr const char* kAllocTags[] = {"perfbench", "scheduler", "channel",
                                      "messages",  "arq",       "detection",
                                      "revocation"};

std::uint64_t thread_allocs() {
  std::uint64_t total = 0;
  for (const char* tag : kAllocTags)
    total += sld::obs::Memstats::thread_totals_for(tag).allocs;
  return total;
}

std::uint64_t field_u64(std::string_view line, std::string_view key) {
  const auto at = line.find(key);
  if (at == std::string_view::npos)
    throw std::runtime_error("alert capture: no field " + std::string(key));
  std::uint64_t v = 0;
  const char* first = line.data() + at + key.size();
  std::from_chars(first, line.data() + line.size(), v);
  return v;
}

/// Keeps the trace records of alerts handed to the ingest path: delivered
/// ones, and ones it refused (traced as lost when no retry follows).
class AlertCapture final : public sld::obs::TraceSink {
 public:
  bool enabled() const override { return true; }
  void write(std::string_view line) override {
    if (line.find("\"e\":\"alert.delivered\"") == std::string_view::npos &&
        line.find("\"e\":\"alert.lost\"") == std::string_view::npos)
      return;
    AlertArrival a;
    a.t = static_cast<sld::sim::SimTime>(field_u64(line, "\"t\":"));
    a.reporter = static_cast<NodeId>(field_u64(line, "\"reporter\":"));
    a.target = static_cast<NodeId>(field_u64(line, "\"target\":"));
    a.nonce = alerts.size() + 1;
    alerts.push_back(a);
  }
  std::vector<AlertArrival> alerts;
};

double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace

void Meter::start() {
  if (sld::obs::Memstats::enabled()) allocs0_ = thread_allocs();
  t0_ = Clock::now();
}

void Meter::stop() {
  ns_ += elapsed_ns(t0_, Clock::now());
  if (sld::obs::Memstats::enabled()) allocs_ += thread_allocs() - allocs0_;
}

std::vector<AlertArrival> capture_alert_stream(
    const sld::core::SystemConfig& config) {
  AlertCapture capture;
  sld::core::SystemConfig traced = config;
  traced.trace_sink = &capture;
  sld::core::SecureLocalizationSystem sys(traced);
  sys.run();
  return std::move(capture.alerts);
}

MicroSuite::MicroSuite(const sld::core::SystemConfig& config,
                       std::size_t max_pending,
                       std::vector<AlertArrival> alerts)
    : config_(config),
      max_pending_(std::max<std::size_t>(max_pending, 1)),
      alerts_(std::move(alerts)),
      sys_(std::make_unique<sld::core::SecureLocalizationSystem>(config_)) {
  auto& net = sys_->network();
  const auto& dep = sys_->deployment();
  const double err = sys_->context().max_ranging_error_ft();
  sld::util::Rng rng(config_.seed ^ 0x6d6963726fULL);

  // Probe pairs (benign beacon -> reachable beacon) and query pairs
  // (sensor -> reachable beacon): the links the trial's radio traffic uses.
  std::size_t sensors = 0;
  std::size_t refs = 0;
  for (const auto& spec : dep.nodes) {
    if (spec.beacon && spec.malicious) continue;
    sld::localization::LocationReferences honest;
    sld::localization::LocationReferences lying;
    for (const NodeId other : net.connected_nodes(spec.id)) {
      const auto* target = dep.find(other);
      if (target == nullptr || !target->beacon) continue;
      pairs_.emplace_back(spec.id, other);
      if (spec.beacon) continue;
      const double d = sld::util::distance(spec.position, target->position);
      const double measured = std::max(0.0, d + rng.uniform(-err, err));
      honest.push_back({other, target->position, measured});
      // A malicious beacon's reference lies, which the robust estimator
      // has to find and discard.
      lying.push_back({other, target->position,
                       measured + (target->malicious ? 50.0 : 0.0)});
    }
    if (spec.beacon) continue;
    ++sensors;
    refs += honest.size();
    // Only sensors with three references are solved; the solvers return
    // at once for the others.
    if (honest.size() < 3) continue;
    honest_refs_.push_back(std::move(honest));
    lying_refs_.push_back(std::move(lying));
  }
  if (pairs_.empty() || honest_refs_.empty())
    throw std::runtime_error("micro: no sensor has three beacon references");
  refs_per_sensor_ = static_cast<double>(refs) / static_cast<double>(sensors);
  build_micros();
}

MicroSuite::~MicroSuite() = default;

void MicroSuite::build_micros() {
  using sld::sim::SimTime;
  sld::sim::Network& net = sys_->network();
  const sld::core::SystemContext& ctx = sys_->context();
  const auto& dep = sys_->deployment();

  std::vector<NodeId> benign;
  std::vector<NodeId> sensor_ids;
  std::vector<std::pair<NodeId, sld::util::Vec2>> roster;
  for (const auto& spec : dep.nodes) {
    if (spec.beacon) roster.emplace_back(spec.id, spec.position);
    if (spec.beacon && !spec.malicious) benign.push_back(spec.id);
    if (!spec.beacon) sensor_ids.push_back(spec.id);
  }

  sld::sim::BeaconReplyPayload reply;
  reply.nonce = 0x1234;
  reply.claimed_position = dep.nodes.front().position;
  const sld::util::Bytes reply_bytes = reply.serialize();

  micros_.push_back({"sim.event_queue.push_pop_ns", "ns", 1.0,
                     [this](std::uint64_t n, Meter& m) {
    // Hold model at the workload's peak depth: pop the earliest event, run
    // it, push a successor at a random later time.
    sld::sim::EventQueue q;
    sld::util::Rng r(0xe7e47);
    std::uint64_t hits = 0;
    const auto horizon = static_cast<std::uint64_t>(max_pending_) * 1000;
    for (std::size_t i = 0; i < max_pending_; ++i)
      q.push(static_cast<SimTime>(r.uniform_u64(horizon)), [&hits] { ++hits; });
    std::vector<SimTime> delays(1024);
    for (auto& d : delays) d = static_cast<SimTime>(r.uniform_u64(2 * horizon) + 1);
    m.start();
    for (std::uint64_t i = 0; i < n; ++i) {
      sld::sim::Event e = q.pop();
      e.action();
      q.push(e.when + delays[i & 1023], [&hits] { ++hits; });
    }
    m.stop();
    g_sink = g_sink + hits;
    return n;
  }});

  micros_.push_back({"sim.channel.transmit_ns", "ns", 1.0,
                     [this, &net, reply_bytes](std::uint64_t n, Meter& m) {
    // Unicast + delivery over the workload's links; every node ignores
    // application traffic, so no protocol work follows.
    sld::sim::Message msg;
    msg.type = sld::sim::MsgType::kAppData;
    msg.payload = reply_bytes;
    m.start();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto& [src, dst] = pairs_[i % pairs_.size()];
      msg.src = src;
      msg.dst = dst;
      net.channel().unicast(*net.node(src), msg);
      if ((i & 63) == 63) net.scheduler().run();
    }
    net.scheduler().run();
    m.stop();
    g_sink = g_sink + net.channel().stats().deliveries;
    return n;
  }});

  micros_.push_back({"sim.message.codec_ns", "ns", 1.0,
                     [reply](std::uint64_t n, Meter& m) {
    sld::sim::BeaconReplyPayload p = reply;
    std::uint64_t acc = 0;
    m.start();
    for (std::uint64_t i = 0; i < n; ++i) {
      p.nonce = i;
      acc += sld::sim::BeaconReplyPayload::parse(p.serialize()).nonce;
    }
    m.stop();
    g_sink = g_sink + acc;
    return n;
  }});

  micros_.push_back({"sim.network.connected_nodes_us", "us", 1e3,
                     [&net, &dep](std::uint64_t n, Meter& m) {
    std::uint64_t acc = 0;
    const std::size_t stride = dep.nodes.size() / 97 + 1;
    m.start();
    for (std::uint64_t i = 0; i < n; ++i)
      acc += net.connected_nodes(dep.nodes[(i * stride) % dep.nodes.size()].id)
                 .size();
    m.stop();
    g_sink = g_sink + acc;
    return n;
  }});

  micros_.push_back({"crypto.mac_ns", "ns", 1.0,
                     [&ctx, reply_bytes](std::uint64_t n, Meter& m) {
    // compute_mac + verify_mac on a reply-sized payload.
    const auto key = ctx.keys.pairwise_key(1, 2);
    sld::util::Bytes payload = reply_bytes;
    std::uint64_t ok = 0;
    m.start();
    for (std::uint64_t i = 0; i < n; ++i) {
      payload[0] = static_cast<std::uint8_t>(i);
      const auto tag = sld::crypto::compute_mac(key, 1, 2, payload);
      ok += sld::crypto::verify_mac(key, 1, 2, payload, tag) ? 1U : 0U;
    }
    m.stop();
    g_sink = g_sink + ok;
    return n;
  }});

  micros_.push_back({"crypto.detecting_ids_allocate_us", "us", 1e3,
                     [this, benign, sensor_ids](std::uint64_t n, Meter& m) {
    // Provisioning order: reserve the real sensor IDs, then draw m
    // detecting IDs per benign beacon from a fresh registry.
    sld::util::Rng r(0x1d5);
    std::uint64_t done = 0;
    std::uint64_t acc = 0;
    while (done < n) {
      sld::crypto::DetectingIdRegistry reg(sld::sim::kNonBeaconIdBase,
                                           sld::sim::kNonBeaconIdLimit);
      for (const NodeId s : sensor_ids) reg.reserve_real_id(s);
      m.start();
      for (std::size_t b = 0; b < benign.size() && done < n; ++b, ++done)
        acc += reg.allocate(benign[b], config_.detecting_ids, r).size();
      m.stop();
    }
    g_sink = g_sink + acc;
    return done;
  }});

  std::vector<double> distances;
  for (const auto& [a, b] : pairs_)
    distances.push_back(sld::util::distance(net.node(a)->position(),
                                            net.node(b)->position()));
  micros_.push_back({"ranging.rtt_sample_ns", "ns", 1.0,
                     [&ctx, distances](std::uint64_t n, Meter& m) {
    sld::util::Rng r(0x477);
    double acc = 0.0;
    m.start();
    for (std::uint64_t i = 0; i < n; ++i)
      acc += ctx.timing.sample_rtt_cycles(distances[i % distances.size()], r);
    m.stop();
    g_sink = g_sink + static_cast<std::uint64_t>(acc);
    return n;
  }});

  micros_.push_back({"ranging.calibrate_ms", "ms", 1e6,
                     [this, &ctx](std::uint64_t n, Meter& m) {
    sld::util::Rng r(0xca11b);
    double acc = 0.0;
    m.start();
    for (std::uint64_t i = 0; i < n; ++i)
      acc += sld::ranging::calibrate_rtt(ctx.timing,
                                         config_.rtt_calibration_samples,
                                         config_.deployment.comm_range_ft, r)
                 .x_max_cycles;
    m.stop();
    g_sink = g_sink + static_cast<std::uint64_t>(acc);
    return n;
  }});

  // Probe observations as a detecting beacon sees them: direct links range
  // within the honest error, tunnelled ones measure the exit mouth, and
  // malicious targets lie about their distance.
  std::vector<sld::detection::SignalObservation> observations;
  {
    sld::util::Rng r(0xde7ec7);
    const double range = config_.deployment.comm_range_ft;
    const double err = ctx.max_ranging_error_ft();
    for (const auto& [a, b] : pairs_) {
      const auto* ra = dep.find(a);
      const auto* rb = dep.find(b);
      if (!ra->beacon) continue;
      sld::detection::SignalObservation o;
      o.receiver_id = a;
      o.sender_id = b;
      o.receiver_position = ra->position;
      o.claimed_position = rb->position;
      o.target_range_ft = range;
      const double d = sld::util::distance(ra->position, rb->position);
      o.via_wormhole = d > range;
      o.measured_distance_ft = o.via_wormhole
                                   ? r.uniform(0.0, range)
                                   : std::max(0.0, d + r.uniform(-err, err));
      if (rb->malicious) o.measured_distance_ft += 50.0;
      o.observed_rtt_cycles =
          ctx.timing.sample_rtt_cycles(std::min(d, range), r);
      observations.push_back(o);
    }
  }
  micros_.push_back({"detection.evaluate_ns", "ns", 1.0,
                     [&ctx, observations](std::uint64_t n, Meter& m) {
    sld::util::Rng r(0xe7a1);
    std::uint64_t acc = 0;
    m.start();
    for (std::uint64_t i = 0; i < n; ++i)
      acc += static_cast<std::uint64_t>(
          ctx.detector->evaluate(observations[i % observations.size()], r));
    m.stop();
    g_sink = g_sink + acc;
    return n;
  }});

  micros_.push_back({"localization.mlat_solve_ns", "ns", 1.0,
                     [this](std::uint64_t n, Meter& m) {
    const sld::localization::MultilaterationSolver solver;
    std::uint64_t acc = 0;
    m.start();
    for (std::uint64_t i = 0; i < n; ++i)
      acc += solver.solve(honest_refs_[i % honest_refs_.size()]) ? 1U : 0U;
    m.stop();
    g_sink = g_sink + acc;
    return n;
  }});

  micros_.push_back({"localization.robust_solve_ns", "ns", 1.0,
                     [this](std::uint64_t n, Meter& m) {
    std::uint64_t acc = 0;
    m.start();
    for (std::uint64_t i = 0; i < n; ++i)
      acc += sld::localization::robust_multilateration(
                 lying_refs_[i % lying_refs_.size()])
                 ? 1U
                 : 0U;
    m.stop();
    g_sink = g_sink + acc;
    return n;
  }});

  if (alerts_.empty()) return;
  micros_.push_back({"revocation.ingest_submit_ns", "ns", 1.0,
                     [this, roster](std::uint64_t n, Meter& m) {
    // The captured stream through the workload's own ingest configuration:
    // submit (which advances the pipeline) per alert, then drain.
    std::uint64_t done = 0;
    while (done < n) {
      sld::revocation::BaseStationCluster cluster(config_.revocation,
                                                  config_.failover);
      if (config_.revocation.lifecycle.enabled)
        cluster.set_beacon_roster(roster);
      sld::revocation::IngestPipeline pipe(config_.ingest, cluster);
      m.start();
      for (const AlertArrival& a : alerts_) {
        if (pipe.enabled())
          pipe.submit(a.t, a.reporter, a.target, a.nonce);
        else
          cluster.process_alert(a.t, a.reporter, a.target, a.nonce);
      }
      pipe.drain(alerts_.back().t);
      m.stop();
      done += alerts_.size();
      g_sink = g_sink + cluster.authority().revoked_count();
    }
    return done;
  }});

  micros_.push_back({"revocation.process_alert_ns", "ns", 1.0,
                     [this](std::uint64_t n, Meter& m) {
    // The paper's permanent base station on the same stream.
    sld::revocation::RevocationConfig permanent = config_.revocation;
    permanent.lifecycle.enabled = false;
    std::uint64_t done = 0;
    while (done < n) {
      sld::revocation::BaseStation bs(permanent);
      m.start();
      for (const AlertArrival& a : alerts_)
        bs.process_alert(a.reporter, a.target, a.nonce, a.t);
      m.stop();
      done += alerts_.size();
      g_sink = g_sink + bs.revoked_count();
    }
    return done;
  }});
}

std::vector<MicroResult> MicroSuite::time(double budget_s, SpanLog& spans) {
  std::vector<MicroResult> out;
  const std::uint64_t root = spans.open("micro", 0, 0);
  const auto per_micro = std::chrono::duration<double>(
      budget_s / static_cast<double>(micros_.size()));
  for (const Micro& mc : micros_) {
    // Grow the batch until it takes at least 2 ms (this also warms up).
    std::uint64_t n = 1;
    for (;; n *= 2) {
      Meter m;
      mc.batch(n, m);
      if (m.ns() >= 2'000'000 || n >= (1ULL << 24)) break;
    }
    MicroResult res;
    res.name = mc.name;
    res.unit = mc.unit;
    res.batch_ops = n;
    std::vector<double> per_op;
    const auto until = Clock::now() + per_micro;
    while (per_op.size() < 5 || (Clock::now() < until && per_op.size() < 2000)) {
      const std::uint64_t span = spans.open(mc.name, root, root);
      Meter m;
      const std::uint64_t done = mc.batch(n, m);
      spans.close(span);
      res.ops += done;
      per_op.push_back(static_cast<double>(m.ns()) /
                       static_cast<double>(done) / mc.ns_per_unit);
    }
    std::sort(per_op.begin(), per_op.end());
    res.p25 = quantile(per_op, 0.25);
    res.p50 = quantile(per_op, 0.50);
    res.p75 = quantile(per_op, 0.75);
    out.push_back(res);
  }
  spans.close(root);
  return out;
}

void MicroSuite::count_allocs(std::vector<MicroResult>& results) {
  for (std::size_t i = 0; i < micros_.size(); ++i) {
    Meter m;
    std::uint64_t done = 0;
    {
      SLD_MEM_SCOPE("perfbench");
      done = micros_[i].batch(results[i].batch_ops, m);
    }
    results[i].allocs_per_op =
        static_cast<double>(m.allocs()) / static_cast<double>(done);
  }
}

}  // namespace perfbench
