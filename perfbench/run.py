#!/usr/bin/env python3
"""Benchmark of the secure-localization simulator.

Builds perfbench/ (the repository's libraries plus sld_perfbench) in Release
mode under .bench_build/, runs one workload, checks the program's outputs and
prints the metrics as the last line of stdout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 35 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json from untraced
trials. --trace 1 prints the per-layer metrics: it runs one untraced cycle,
the micro-workloads and one traced cycle (bench-side spans plus the
program's memstats counters), and writes the spans as Chrome trace JSON to
.bench_build/spans/.

Steadiness mode repeats a workload N times at one seed and prints each
metric's median and quartile spread beside its bound:

    python3 perfbench/run.py --steady 5 --workload dense_4k

Human-readable reports and run metadata (CPU time, host load) go to stderr.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "sld_perfbench"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds incrementally; exits 1 on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "sld_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:], proc.stderr[-4000:])
            log("perfbench: build step failed:", " ".join(cmd))
            sys.exit(1)


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def div(a, b):
    """a / b, or 0 when a failed run left nothing to divide by."""
    return a / b if b else 0.0


def trial_ms(t):
    return t["ctor_ms"] + t["run_ms"] + t["dtor_ms"]


def check_trials(trials, spec_w, seed, default_seed):
    """Failed trials: a broken output invariant, a digest that differs
    between repeats of one configuration, or (at the default seed) a digest
    that differs from the one recorded in spec.json."""
    recorded = spec_w["default_seed_digests"] if seed == default_seed else None
    first = {}
    failed = 0
    for t in trials:
        bad = bool(t["error"])
        cfg = t["cfg"]
        first.setdefault(cfg, t["digest"])
        if t["digest"] != first[cfg]:
            bad = True
            log(f"perfbench: cfg {cfg} digest changed between repeats")
        if recorded is not None and t["digest"] != recorded[cfg]:
            bad = True
            log(f"perfbench: cfg {cfg} digest {t['digest']} != recorded "
                f"{recorded[cfg]}")
        if t["error"]:
            log(f"perfbench: cfg {cfg}: {t['error']}")
        failed += bad
    return failed


def e2e_metrics(raw, spec_w):
    trials = raw["trials"]
    totals = [trial_ms(t) for t in trials]
    return {
        "trials_per_s": (div(len(trials), raw["wall_s"]), "1/s"),
        "trial_ms_p50": (statistics.median(totals), "ms"),
        "trial_ms_tail": (nearest_rank(totals, spec_w["tail_percentile"]), "ms"),
        "setup_s": (statistics.median(t["ctor_ms"] for t in trials) / 1e3, "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


PHASES = ("deployment", "calibration", "provisioning", "probing",
          "localization")


def layer_metrics(raw):
    traced, untraced = raw["traced"], raw["untraced"]
    micro = {m["name"]: m for m in raw["micro"]}

    def total(rows, key):
        return sum(t[key] for t in rows)

    def per_trial(key):
        return div(total(traced, key), len(traced))

    def gauge(t, name):
        return t.get("metrics", {}).get("gauges", {}).get(name, 0.0)

    def counter(t, name):
        return t.get("metrics", {}).get("counters", {}).get(name, 0)

    def phase(name):
        return statistics.median(gauge(t, f"phase.{name}_ms") for t in traced)

    coverage = statistics.median(
        div(sum(gauge(t, f"phase.{p}_ms") for p in PHASES),
            t["ctor_ms"] + t["run_ms"]) for t in traced)
    ingest = [t for t in traced if t["ingest_enabled"]]
    commit_ratio = div(total(ingest, "ingest_committed"),
                       total(ingest, "ingest_submitted")) if ingest else 1.0
    out = {
        "core.phase.provisioning_ms": (phase("provisioning"), "ms"),
        "core.phase.calibration_ms": (phase("calibration"), "ms"),
        "core.phase.probing_ms": (phase("probing"), "ms"),
        "core.phase.localization_ms": (phase("localization"), "ms"),
        "core.phase_coverage": (coverage, "ratio"),
        "core.teardown_ms": (
            statistics.median(t["dtor_ms"] for t in traced), "ms"),
        "sim.events_per_trial": (per_trial("events"), "count"),
        "sim.events_per_s": (
            div(total(untraced, "events"), total(untraced, "run_ms") / 1e3),
            "1/s"),
        "sim.event_queue.max_pending": (
            max(t["max_pending"] for t in traced), "count"),
        "sim.event_queue.sift_steps_per_event": (
            div(total(traced, "sift_steps"), total(traced, "events")), "count"),
        "sim.channel.transmissions_per_trial": (
            per_trial("transmissions"), "count"),
        "sim.channel.scan_fanout": (
            div(total(traced, "scan_nodes"), total(traced, "scans")), "count"),
        "sim.allocs_per_event": (
            div(total(traced, "allocs"), total(traced, "events")), "count"),
        "crypto.mac_allocs_per_op": (
            micro["crypto.mac_ns"]["allocs_per_op"], "count"),
        "detection.allocs_per_probe": (
            div(sum(counter(t, "mem.detection.allocs") for t in traced),
                total(traced, "probes")), "count"),
        "detection.probes_per_trial": (per_trial("probes"), "count"),
        "detection.ignored_wormhole_per_trial": (
            per_trial("ignored_wormhole"), "count"),
        "detection.ignored_replay_per_trial": (
            per_trial("ignored_replay"), "count"),
        "detection.alerts_per_trial": (per_trial("detection_alerts"), "count"),
        "localization.sensors_localized_per_trial": (
            per_trial("sensors_localized"), "count"),
        "revocation.allocs_per_alert": (
            div(sum(counter(t, "mem.revocation.allocs") for t in traced),
                total(traced, "alerts")), "count"),
        "revocation.alerts_per_trial": (per_trial("alerts"), "count"),
        "revocation.commit_ratio": (commit_ratio, "ratio"),
        "obs.traced_overhead_ratio": (
            div(sum(map(trial_ms, traced)), sum(map(trial_ms, untraced))),
            "ratio"),
    }
    for m in raw["micro"]:
        out[m["name"]] = (m["p50"], m["unit"])
    return out, coverage


def run_once(args, spec, bench):
    """One measured run; returns (result dict, metadata dict)."""
    spec_w = spec["workloads"][args.workload]
    mode = "trace" if args.trace else "e2e"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--min-trials", str(spec_w["min_trials"])]
    if args.trace:
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans)]
    load_start = os.getloadavg()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=175)
    if proc.returncode != 0:
        log(proc.stderr)
        raise SystemExit(f"perfbench: {BINARY.name} exited {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    correct = raw["params"] == spec_w["generator"]
    if not correct:
        log("perfbench: generator parameters differ from spec.json:",
            json.dumps(raw["params"]))
    trials = [raw["warmup"]]
    trials += raw["trials"] if mode == "e2e" else raw["untraced"] + raw["traced"]
    failed = check_trials(trials, spec_w, args.seed, spec["default_seed"])
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    if args.trace:
        values, coverage = layer_metrics(raw)
        low = spec["phase_coverage_min"]
        if coverage < low:
            correct = False
            log(f"perfbench: phases cover {coverage:.3f} of setup+run, "
                f"below {low}")
    else:
        values = e2e_metrics(raw, spec_w)
    missing = [n for n in names if n not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {missing}")
    result = {
        "correct": correct and failed == 0,
        "attempted": len(trials),
        "failed": failed,
        "metrics": {n: {"value": values[n][0], "unit": values[n][1]}
                    for n in names},
    }
    meta = {
        "workload": args.workload, "seed": args.seed, "mode": mode,
        "trials": len(trials), "error_rate": failed / len(trials),
        "cpu_user_s": raw["cpu_user_s"], "cpu_sys_s": raw["cpu_sys_s"],
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
    }
    if args.trace:
        meta["refs_per_sensor"] = raw["refs_per_sensor"]
        meta["micro"] = {m["name"]: [m["p25"], m["p50"], m["p75"], m["unit"],
                                     m["allocs_per_op"]] for m in raw["micro"]}
    else:
        meta["wall_s"] = raw["wall_s"]
        meta["tail_percentile"] = spec_w["tail_percentile"]
    return result, meta


def report(result, meta):
    log("meta " + json.dumps(meta))
    for name, m in result["metrics"].items():
        log(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    log(f"  {'error_rate (failed / attempted)':45s} "
        f"{meta['error_rate']:>16.6g} ratio")


def steady(args, spec, bench):
    """Repeats one workload and seed --steady N times and prints each
    metric's median, quartiles and spread beside its bound: the run-to-run
    noise a comparison of two runs of the same code sees."""
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for _ in range(args.steady):
        result, meta = run_once(args, spec, bench)
        report(result, meta)
        runs.append(result)
    print(f"{args.workload}: {len(runs)} runs of seed {args.seed}, "
          f"failed {sum(r['failed'] for r in runs)}, "
          f"incorrect {sum(not r['correct'] for r in runs)}")
    print(f"{'metric':45s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:45s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="repeat the run N times and print spreads")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload not in spec["workloads"]:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    build()
    if args.steady:
        steady(args, spec, bench)
        return
    result, meta = run_once(args, spec, bench)
    report(result, meta)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
