// Shared helpers for the figure-reproduction benches: a tiny flag parser
// so every bench can be re-run with more statistical power — or full
// forensics — without recompiling. Flags (all documented in DESIGN.md
// "Bench flags"):
//   --trials N     trials per sweep point
//   --seed S       base RNG seed
//   --fast         shrink sweeps for smoke runs
//   --repeats N    measured repetitions of the whole workload (default 1)
//   --warmup N     unmeasured warmup repetitions (default 0)
//   --trace FILE   JSONL event trace of every trial
//   --metrics FILE per-trial metrics snapshots (benches that support it)
//   --json FILE    machine-readable BENCH result (bench_runner.hpp)
//   --chaos-sweep  add a chaos column (benches that support it)
//   --timeseries FILE  timeseries/v1 telemetry stream (supporting benches)
//   --slo SPEC     SLO rules, inline or @file (supporting benches)
//   --jobs N       worker threads per experiment (1 = serial, 0 = hardware)
//   --memstats     allocation + hot-path telemetry (table on stderr,
//                  "memstats" block in --json)
//   --rss          sample peak RSS into the telemetry stream (mem.rss_kb)
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace sld::bench {

/// Strict whole-string integer parse for bench flags: garbage, trailing
/// text, or out-of-range input exits(2) with a flag-prefixed message.
inline long long parse_strict_ll(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    std::cerr << flag << ": not a number: '" << text << "'\n";
    std::exit(2);
  }
  if (errno == ERANGE) {
    std::cerr << flag << ": out of range: '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

/// Strict whole-string floating-point parse; rejects garbage, trailing
/// text, infinities and NaN.
inline double parse_strict_double(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    std::cerr << flag << ": not a number: '" << text << "'\n";
    std::exit(2);
  }
  if (errno == ERANGE || !std::isfinite(v)) {
    std::cerr << flag << ": out of range: '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

/// As parse_strict_ll but additionally rejects zero and negative values —
/// shard counts, queue bounds and flood volumes must be positive.
inline long long parse_positive_ll(const char* flag, const char* text) {
  const long long v = parse_strict_ll(flag, text);
  if (v <= 0) {
    std::cerr << flag << ": must be positive: '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

/// As parse_strict_double but additionally rejects zero and negative
/// values — rates, burst lengths and Zipf exponents must be positive.
inline double parse_positive_double(const char* flag, const char* text) {
  const double v = parse_strict_double(flag, text);
  if (v <= 0.0) {
    std::cerr << flag << ": must be positive: '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

struct BenchArgs {
  std::size_t trials = 5;
  std::uint64_t seed = 1;
  bool fast = false;  // benches may shrink sweeps under --fast
  /// Measured repetitions of the whole workload ("--repeats N"). The
  /// human-readable tables print once (on the last repeat); wall time is
  /// recorded per repeat and summarised as median + MAD.
  std::size_t repeats = 1;
  /// Unmeasured warmup repetitions before the measured ones.
  std::size_t warmup = 0;
  /// JSONL trace destination ("--trace FILE"); empty means tracing off.
  std::string trace_path;
  /// Per-trial metrics snapshot destination ("--metrics FILE").
  std::string metrics_path;
  /// Machine-readable bench-result destination ("--json FILE"); empty
  /// means no BENCH_*.json is written.
  std::string json_path;
  /// Extend the sweep with a chaos configuration (crash windows, a
  /// partition, clock drift, a WAL-backed base-station outage) in benches
  /// that support it ("--chaos-sweep"). Off by default so the standard
  /// sweep output — and its golden hash — is byte-identical.
  bool chaos_sweep = false;
  /// `timeseries/v1` JSONL destination ("--timeseries FILE"); empty means
  /// no telemetry stream (benches that support it).
  std::string timeseries_path;
  /// SLO rule spec ("--slo SPEC"): inline rules separated by ';', or
  /// "@file" to read a rule file. Empty means the bench's defaults.
  std::string slo_spec;
  /// Worker threads per experiment ("--jobs N"): 1 (the default) runs the
  /// classic serial loop, 0 means hardware concurrency, N>1 runs trials on
  /// the work-stealing executor. Every aggregate, golden, and stream is
  /// byte-identical across values (tests/test_executor.cpp) — only wall
  /// time changes.
  std::size_t jobs = 1;
  /// Memory & hot-path micro-observability ("--memstats"): per-scope
  /// allocation counts, queue-depth / sift / scan-fanout statistics.
  /// Summary table on stderr; a "memstats" block in --json. Off by
  /// default — stdout (and the golden hash) is byte-identical either way.
  bool memstats = false;
  /// Sample peak process RSS into the telemetry stream as a `mem.rss_kb`
  /// gauge ("--rss"; requires --timeseries to be visible anywhere). Off by
  /// default: RSS is host state and varies machine to machine.
  bool rss = false;

  /// Called for every flag parse() itself does not recognise. Pull value
  /// operands with the provided `next(flag)` callback; return true when
  /// the flag was consumed, false to make parse() reject it as unknown.
  using ExtraFlagFn = std::function<bool(
      const std::string& flag,
      const std::function<const char*(const char*)>& next)>;

  static BenchArgs parse(int argc, char** argv) {
    return parse(argc, argv, nullptr, nullptr);
  }

  /// Like parse() but benches may register extra flags (strictly parsed
  /// via the parse_* helpers above); `extra_help` lines are appended to
  /// the --help text.
  static BenchArgs parse(int argc, char** argv, const ExtraFlagFn& extra,
                         const char* extra_help) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const std::function<const char*(const char*)> next_arg =
          [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
          std::cerr << flag << " requires a value\n";
          std::exit(2);
        }
        return argv[++i];
      };
      auto next_value = [&](const char* flag) -> long long {
        const long long v = parse_strict_ll(flag, next_arg(flag));
        if (v < 0) {
          std::cerr << flag << ": must be non-negative: '"
                    << argv[i] << "'\n";
          std::exit(2);
        }
        return v;
      };
      if (a == "--trials") {
        args.trials = static_cast<std::size_t>(next_value("--trials"));
      } else if (a == "--seed") {
        args.seed = static_cast<std::uint64_t>(next_value("--seed"));
      } else if (a == "--fast") {
        args.fast = true;
      } else if (a == "--repeats") {
        args.repeats = static_cast<std::size_t>(next_value("--repeats"));
        if (args.repeats == 0) {
          std::cerr << "--repeats: must be at least 1\n";
          std::exit(2);
        }
      } else if (a == "--warmup") {
        args.warmup = static_cast<std::size_t>(next_value("--warmup"));
      } else if (a == "--trace") {
        args.trace_path = next_arg("--trace");
      } else if (a == "--metrics") {
        args.metrics_path = next_arg("--metrics");
      } else if (a == "--json") {
        args.json_path = next_arg("--json");
      } else if (a == "--chaos-sweep") {
        args.chaos_sweep = true;
      } else if (a == "--timeseries") {
        args.timeseries_path = next_arg("--timeseries");
      } else if (a == "--slo") {
        args.slo_spec = next_arg("--slo");
      } else if (a == "--jobs") {
        args.jobs = static_cast<std::size_t>(next_value("--jobs"));
      } else if (a == "--memstats") {
        args.memstats = true;
      } else if (a == "--rss") {
        args.rss = true;
      } else if (a == "--help" || a == "-h") {
        std::cout
            << "usage: " << argv[0]
            << " [--trials N] [--seed S] [--fast]"
            << " [--repeats N] [--warmup N]"
            << " [--trace FILE] [--metrics FILE]"
            << " [--json FILE] [--chaos-sweep]\n"
            << "  --trials N     trials per sweep point (default 5)\n"
            << "  --seed S       base RNG seed (default 1)\n"
            << "  --fast         shrink sweeps for smoke runs\n"
            << "  --repeats N    measured repetitions of the workload "
               "(default 1)\n"
            << "  --warmup N     unmeasured warmup repetitions (default 0)\n"
            << "  --trace FILE   JSONL event trace of every trial\n"
            << "  --metrics FILE per-trial metrics snapshots\n"
            << "  --json FILE    machine-readable bench result "
               "(sld-bench-result/v1)\n"
            << "  --chaos-sweep  add a chaos configuration to the sweep "
               "(benches that support it)\n"
            << "  --timeseries FILE  timeseries/v1 telemetry JSONL "
               "(benches that support it)\n"
            << "  --slo SPEC     SLO rules, inline or @file: "
            << sld::obs::slo_spec_grammar() << "\n"
            << "  --jobs N       worker threads per experiment "
               "(default 1 = serial, 0 = hardware concurrency)\n"
            << "  --memstats     allocation + hot-path telemetry "
               "(stderr table; \"memstats\" block in --json)\n"
            << "  --rss          sample peak RSS into the telemetry "
               "stream (mem.rss_kb gauge)\n";
        if (extra_help != nullptr) std::cout << extra_help;
        std::exit(0);
      } else if (extra && extra(a, next_arg)) {
        // consumed by the bench's own flag table
      } else {
        std::cerr << "unknown flag: " << a << "\n";
        std::exit(2);
      }
    }
    return args;
  }

  /// Opens the --trace sink, or returns nullptr when tracing is off.
  /// Wire the raw pointer into SystemConfig::trace_sink; the unique_ptr
  /// must outlive every trial that uses it.
  std::unique_ptr<sld::obs::JsonlSink> open_trace_sink() const {
    if (trace_path.empty()) return nullptr;
    try {
      return std::make_unique<sld::obs::JsonlSink>(trace_path);
    } catch (const std::exception& e) {
      std::cerr << "--trace: " << e.what() << "\n";
      std::exit(2);
    }
  }

  /// Opens the --timeseries sink, or nullptr when telemetry streaming is
  /// off. Same ownership contract as open_trace_sink().
  std::unique_ptr<sld::obs::JsonlSink> open_timeseries_sink() const {
    if (timeseries_path.empty()) return nullptr;
    try {
      return std::make_unique<sld::obs::JsonlSink>(timeseries_path);
    } catch (const std::exception& e) {
      std::cerr << "--timeseries: " << e.what() << "\n";
      std::exit(2);
    }
  }

  /// Parses --slo (reading "@file" specs from disk). Returns `fallback`
  /// when no spec was given; exits(2) on malformed rules, matching the
  /// strict-flag convention.
  std::vector<sld::obs::SloRule> parse_slo(
      const std::string& fallback = "") const {
    std::string spec = slo_spec.empty() ? fallback : slo_spec;
    if (spec.empty()) return {};
    if (spec[0] == '@') {
      std::ifstream in(spec.substr(1));
      if (!in.is_open()) {
        std::cerr << "--slo: cannot open " << spec.substr(1) << "\n";
        std::exit(2);
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      spec = buf.str();
    }
    try {
      return sld::obs::parse_slo_spec(spec);
    } catch (const std::exception& e) {
      std::cerr << "--slo: " << e.what() << "\n";
      std::exit(2);
    }
  }
};

}  // namespace sld::bench
