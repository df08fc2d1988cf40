// sld_perfbench: runs one workload's trials single-threaded and prints the
// raw measurements as one JSON object on stdout. perfbench/run.py builds
// this program, runs it, checks the outputs and derives the metrics.
//
//   sld_perfbench --workload NAME --seed N --seconds S --mode e2e|trace
//                 [--min-trials N] [--spans PATH]
//
// e2e:   a warm-up trial, then whole cycles of untraced trials until S
//        seconds have passed and at least --min-trials trials have run.
// trace: one untraced cycle (the overhead baseline), the per-layer
//        micro-workloads, then one traced cycle with bench-side spans and
//        the program's memstats counters on; spans go to --spans.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "micro.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string mode = "e2e";
  std::size_t min_trials = 1;
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--mode") a.mode = v;
    else if (flag == "--min-trials") a.min_trials = std::stoull(v);
    else if (flag == "--spans") a.spans = v;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.mode != "e2e" && a.mode != "trace")
    throw std::invalid_argument("--mode must be e2e or trace");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double seconds_since(Clock::time_point t0) {
  return static_cast<double>(elapsed_ns(t0, Clock::now())) / 1e9;
}

class JsonOut {
 public:
  void key(const char* k) {
    sep();
    s_ += "\"";
    s_ += k;
    s_ += "\":";
    fresh_ = true;
  }
  void num(const char* k, double v) { key(k); append_number(s_, v); fresh_ = false; }
  void uint(const char* k, std::uint64_t v) { key(k); s_ += std::to_string(v); fresh_ = false; }
  void str(const char* k, const std::string& v) {
    key(k);
    s_ += "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') s_ += '\\';
      s_ += (c == '\n' ? ' ' : c);
    }
    s_ += "\"";
    fresh_ = false;
  }
  void raw(const char* k, const std::string& json) { key(k); s_ += json; fresh_ = false; }
  void open(const char* k, char bracket) {
    if (k != nullptr) key(k); else sep();
    s_ += bracket;
    fresh_ = true;
  }
  void close(char bracket) { s_ += bracket; fresh_ = false; }
  const std::string& str() const { return s_; }

 private:
  void sep() {
    if (!fresh_) s_ += ",";
    fresh_ = false;
  }
  std::string s_;
  bool fresh_ = true;
};

void trial_json(JsonOut& j, const TrialRecord& r) {
  j.open(nullptr, '{');
  j.uint("cfg", r.cfg);
  j.num("ctor_ms", r.ctor_ms);
  j.num("run_ms", r.run_ms);
  j.num("dtor_ms", r.dtor_ms);
  j.str("digest", r.digest);
  j.str("error", r.error);
  j.uint("events", r.events);
  j.uint("max_pending", r.max_pending);
  j.uint("sift_steps", r.sift_steps);
  j.uint("transmissions", r.transmissions);
  j.uint("probes", r.probes);
  j.uint("ignored_wormhole", r.ignored_wormhole);
  j.uint("ignored_replay", r.ignored_replay);
  j.uint("detection_alerts", r.detection_alerts);
  j.uint("alerts", r.alerts);
  j.uint("sensors_localized", r.sensors_localized);
  j.uint("ingest_enabled", r.ingest_enabled ? 1 : 0);
  j.uint("ingest_submitted", r.ingest_submitted);
  j.uint("ingest_committed", r.ingest_committed);
  j.uint("allocs", r.allocs);
  j.uint("scans", r.scans);
  j.uint("scan_nodes", r.scan_nodes);
  if (!r.metrics_json.empty()) j.raw("metrics", r.metrics_json);
  j.close('}');
}

void trials_json(JsonOut& j, const char* key,
                 const std::vector<TrialRecord>& trials) {
  j.open(key, '[');
  for (const auto& r : trials) trial_json(j, r);
  j.close(']');
}

void process_json(JsonOut& j) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  j.uint("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
  j.num("cpu_user_s", secs(ru.ru_utime));
  j.num("cpu_sys_s", secs(ru.ru_stime));
}

std::vector<TrialRecord> run_cycle(const Workload& w, bool traced,
                                   SpanLog& spans) {
  std::vector<TrialRecord> out;
  for (std::size_t i = 0; i < w.configs.size(); ++i) {
    sld::core::SystemConfig c = w.configs[i];
    c.memstats = traced;
    out.push_back(run_trial(c, i, traced, spans));
  }
  return out;
}

int run(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed);
  JsonOut j;
  j.open(nullptr, '{');
  j.str("workload", w.name);
  j.uint("seed", a.seed);
  j.str("mode", a.mode);
  j.raw("params", w.params_json);
  j.uint("cycle", w.configs.size());

  SpanLog no_spans(false);
  const TrialRecord warmup = run_trial(w.configs[0], 0, false, no_spans);
  j.key("warmup");
  trial_json(j, warmup);

  if (a.mode == "e2e") {
    // A run ends on a cycle boundary, so every configuration is sampled
    // equally often; 150 s caps a run on a host far slower than expected.
    std::vector<TrialRecord> trials;
    const auto t0 = Clock::now();
    while (true) {
      const double s = seconds_since(t0);
      if (trials.size() % w.configs.size() == 0 &&
          ((s >= a.seconds && trials.size() >= a.min_trials) || s >= 150.0))
        break;
      const std::size_t cfg = trials.size() % w.configs.size();
      trials.push_back(run_trial(w.configs[cfg], cfg, false, no_spans));
    }
    j.num("wall_s", seconds_since(t0));
    trials_json(j, "trials", trials);
  } else {
    const auto t0 = Clock::now();
    const std::vector<TrialRecord> untraced = run_cycle(w, false, no_spans);
    const double cycle_s = seconds_since(t0);
    trials_json(j, "untraced", untraced);

    // The event-queue micro runs at the cycle's peak depth.
    std::size_t max_pending = 0;
    for (const TrialRecord& r : untraced)
      max_pending = std::max<std::size_t>(max_pending, r.max_pending);
    MicroSuite micro(w.configs[0], max_pending,
                     capture_alert_stream(w.configs[0]));
    // Leave room for the traced cycle (memstats roughly doubles a trial).
    const double budget =
        std::max(2.0, a.seconds - seconds_since(t0) - 2.5 * cycle_s);
    SpanLog spans(true);
    std::vector<MicroResult> micros = micro.time(budget, spans);

    // config.memstats switches the process-wide counters on for good, so
    // count_allocs below still sees them.
    const std::vector<TrialRecord> traced = run_cycle(w, true, spans);
    micro.count_allocs(micros);
    trials_json(j, "traced", traced);

    j.num("refs_per_sensor", micro.refs_per_sensor());
    j.open("micro", '[');
    for (const MicroResult& m : micros) {
      j.open(nullptr, '{');
      j.str("name", m.name);
      j.str("unit", m.unit);
      j.num("p25", m.p25);
      j.num("p50", m.p50);
      j.num("p75", m.p75);
      j.uint("ops", m.ops);
      j.uint("batch_ops", m.batch_ops);
      j.num("allocs_per_op", m.allocs_per_op);
      j.close('}');
    }
    j.close(']');
    if (!a.spans.empty()) {
      std::ofstream f(a.spans);
      f << spans.to_json();
      if (!f) throw std::runtime_error("cannot write spans to " + a.spans);
    }
  }
  process_json(j);
  j.close('}');
  std::cout << j.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "sld_perfbench: " << e.what() << "\n";
    return 2;
  }
}
