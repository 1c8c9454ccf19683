#!/usr/bin/env python3
"""Builds and runs the nocmap benchmark; see benchmark/README.md.

One run of one workload (the last line of stdout is the result object):

    python3 benchmark/run.py --workload map-8x8 --seed 7 --seconds 10 --trace 0

Whole sets, every metric printed as `workload metric value unit q1 q3 n`;
exits non-zero on a failed operation or when two sets disagree beyond a
metric's bound:

    python3 benchmark/run.py --sets 2
    python3 benchmark/run.py --trace      # one traced run per workload

Metric names, units and bounds come from BENCHMARK.json at the repository
root. Traces and per-layer tables are written under benchmark/results/.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "nocmap_bench"
RESULTS_DIR = BENCH_DIR / "results"
DEFAULT_SEED = 20140519
# A run of the benchmark binary never needs longer than this; a stuck run is
# killed and reported without a result.
RUN_TIMEOUT_S = 170
# Set-up times this small are noise, whatever their relative change.
ABS_FLOOR = {"setup_s": 0.02}
# Percentile across passes (and across set-ups) that a run reports; see
# over_passes().
ACROSS_PASSES = 10
TIME_UNITS = {"s", "ms", "us", "ns"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------- statistics


def nearest_rank(values, p):
    """p-th percentile (0..100) by nearest rank: the smallest sample with at
    least p% of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_share(attempted, failed):
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    return failed / attempted


def split_passes(doc):
    """The run's operation times in ms, one list per pass."""
    out, start = [], 0
    for p in doc["passes"]:
        out.append([ns / 1e6 for ns in doc["op_ns"][start:start + p["ops"]]])
        start += p["ops"]
    return out


def over_passes(values):
    """(value, q1, q3, n) of one statistic taken per pass. Every pass does
    the same work, so passes differ only by what the machine did meanwhile:
    bursts of contention on a shared host slow whole passes, by up to half,
    for seconds at a time. A run therefore reports the statistic of its
    fastest passes, the ACROSS_PASSES-th percentile, with the quartiles
    beside it to show the noise it filtered."""
    q1, _, q3 = quartiles(values)
    return nearest_rank(values, ACROSS_PASSES), q1, q3, len(values)


def summarize(doc):
    """Metric name -> (value, q1, q3, n) from one nocmap_bench document."""
    passes = split_passes(doc)
    out = {
        "setup_s": over_passes(doc["setup_s"]),
        "peak_rss_mb": (doc["peak_rss_mb"],) * 3 + (1,),
        "op_ms": over_passes([statistics.fmean(p) for p in passes]),
        "op_p50_ms": over_passes([nearest_rank(p, 50) for p in passes]),
        "max_apl": (doc["max_apl"],) * 3 + (1,),
    }
    if "layers" in doc:
        for name, value in doc["layers"].items():
            out[name] = (value, value, value, 1)
        traced = [p["traced"] for p in doc["passes"]]
        out["obs.trace_overhead_pct"] = (
            trace_overhead_pct([statistics.fmean(p) for p in passes], traced),
            0, 0, len(passes))
    return out


def trace_overhead_pct(pass_means, traced):
    """Traced vs untraced passes of one run, as % slower when traced."""
    on = [m for m, t in zip(pass_means, traced) if t]
    off = [m for m, t in zip(pass_means, traced) if not t]
    if not on or not off:
        return 0.0
    return 100.0 * (statistics.median(on) / statistics.median(off) - 1.0)


def beyond_bound(name, reference, value, bound):
    """True when two readings of a metric differ by more than its bound
    (relative, or absolute below the metric's floor)."""
    allowed = max(bound * abs(reference), ABS_FLOOR.get(name, 0.0))
    return abs(value - reference) > allowed


def disagreements(sets, spec):
    """(workload, metric, first, other) for every end-to-end metric whose
    reading in a later set strays from the first set beyond its bound."""
    found = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in sets[0]:
            first = sets[0][workload][name][0]
            for later in sets[1:]:
                other = later[workload][name][0]
                if beyond_bound(name, first, other, metric["bound"]):
                    found.append((workload, name, first, other))
    return found


# ------------------------------------------------------------ build and run


def build():
    """Configures (once) and builds nocmap_bench; False on failure."""
    if not (ROOT / "src").is_dir():
        log("run.py: no src/ next to benchmark/; nothing to build")
        return False
    BUILD_DIR.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "nocmap_bench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                return False
    return True


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(workload, seed, seconds, trace):
    """One nocmap_bench run; returns its document or None when it failed."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        RESULTS_DIR.mkdir(exist_ok=True)
        cmd += ["--trace", str(RESULTS_DIR / f"{workload}.trace.json")]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    if out.returncode != 0:
        log(out.stderr.strip())
        log(f"run.py: {workload} exited with {out.returncode}")
        return None
    doc = json.loads(out.stdout)
    doc["fingerprint"]["git_commit"] = git_commit()
    if trace:
        slim = {k: v for k, v in doc.items() if k != "op_ns"}
        with open(RESULTS_DIR / f"{workload}.layers.json", "w") as f:
            json.dump(slim, f, indent=2)
    return doc


def complete_layers(summary, spec, workload):
    """Every per-layer metric of BENCHMARK.json, 0 for a count or share the
    workload never touches; a missing time is a bug in nocmap_bench."""
    for metric in spec["per_layer"]:
        if metric["name"] in summary:
            continue
        if metric["unit"] in TIME_UNITS:
            raise KeyError(f"{workload}: no per-layer time {metric['name']}")
        summary[metric["name"]] = (0.0, 0.0, 0.0, 0)


def result_line(doc, summary, spec, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": summary[m["name"]][0],
                                "unit": m["unit"]} for m in metrics},
    }


def print_rows(workload, summary, metrics):
    for m in metrics:
        value, q1, q3, n = summary[m["name"]]
        print(f"{workload} {m['name']} {value:.6g} {m['unit']} "
              f"{q1:.6g} {q3:.6g} {n}")


def describe(doc):
    fp = doc["fingerprint"]
    log(f"{doc['workload']}: seed {doc['seed']}, {len(doc['passes'])} passes, "
        f"{doc['attempted']} ops, {doc['failed']} failed, digest "
        f"{doc['digest']}; {fp['compiler']} {fp['build_type']}, nproc "
        f"{fp['nproc']}, commit {fp['git_commit']}")
    for failure in doc["failures"]:
        log(f"  failed: {failure}")


def single_run(args, spec):
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"run.py: unknown workload {args.workload}")
        return 2
    if not build():
        return 2
    doc = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if doc is None:
        return 3
    describe(doc)
    summary = summarize(doc)
    if args.trace:
        complete_layers(summary, spec, args.workload)
    line = result_line(doc, summary, spec, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def set_mode(args, spec):
    if not build():
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    sets = []
    failed = 0
    for index in range(args.sets):
        print(f"# set {index + 1}")
        summaries = {}
        for workload in workloads:
            started = time.monotonic()
            doc = run_binary(workload, args.seed, args.seconds, args.trace)
            if doc is None:
                return 3
            describe(doc)
            log(f"  {time.monotonic() - started:.1f} s, failed share "
                f"{failed_share(doc['attempted'], doc['failed']):.3g}")
            failed += doc["failed"]
            summary = summarize(doc)
            if args.trace:
                complete_layers(summary, spec, workload)
            summaries[workload] = summary
            print_rows(workload, summary, metrics)
        sets.append(summaries)
    status = 0
    if failed:
        log(f"run.py: {failed} failed operations")
        status = 1
    if not args.trace:
        for workload, name, first, other in disagreements(sets, spec):
            log(f"run.py: {workload} {name} disagrees across sets: "
                f"{first:.6g} vs {other:.6g}")
            status = 1
    return status


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="traced run: per-layer metrics")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    if args.workload:
        return single_run(args, spec)
    return set_mode(args, spec)


if __name__ == "__main__":
    sys.exit(main())
