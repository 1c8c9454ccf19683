#!/usr/bin/env python3
"""Perf-regression gate for the committed BENCH_*.json baselines.

Every baseline is a filtered RunReport (docs/metrics-schema.md, "Baseline
document"). A metric is any numeric leaf whose key ends in a time unit
(`_ns`, `_us`, `_ms`), named by its dotted path, e.g. `mappers.SSS.map_ms`;
counts and derived ratios are never gated. Lower is better. The gate fails
when a common metric is slower than baseline * (1 + tolerance), default
20%. A negative tolerance is a speedup floor: --tolerance -0.75 allows at
most 25% of the baseline time, a 4x speedup.

Mismatched metric sets are reported explicitly rather than crashing or
passing silently: metrics present in the baseline but missing from the
current run ("removed") fail the gate — a vanished metric usually means a
renamed field or a silently skipped benchmark case — while metrics only in
the current run ("added") are informational, so a new benchmark case can
land before its baseline is regenerated.

When the two fingerprints differ, or the baseline records none, one note
says so; it never changes the exit code.

A --min-ratio option additionally enforces ratio floors *within the current
run* (independent of the baseline): NUM_KEY:DEN_KEY:FLOOR fails the gate
when current[NUM_KEY] / current[DEN_KEY] < FLOOR. This is how CI gates the
partitioned-netsim speedup (DESIGN.md §16): the w1/w8 wall-time ratio of
the mesh64 scaling sweep must clear the floor on runners that have the
cores — the caller guards the flag with an nproc check, since a speedup
floor is meaningless on a 1-core machine.

Usage:
    python3 bench/compare_bench.py \
        --baseline BENCH_netsim.json \
        --current  build/BENCH_netsim.json \
        [--tolerance 0.20] \
        [--min-ratio "netsim.a.run_ms:netsim.b.run_ms:3.0"]
"""

import argparse
import json
import sys

_METRIC_SUFFIXES = ("_ns", "_us", "_ms")


def collect_metrics(node, prefix=""):
    """{dotted.path: value} for every timing leaf of a JSON object."""
    out = {}
    for key, value in node.items():
        path = prefix + key
        if isinstance(value, dict):
            out.update(collect_metrics(value, path + "."))
        elif (isinstance(value, (int, float)) and not isinstance(value, bool)
              and key.endswith(_METRIC_SUFFIXES)):
            out[path] = float(value)
    return out


def fingerprint_note(baseline_doc, current_doc):
    """A note when the runs may come from different machines or builds."""
    base = baseline_doc.get("fingerprint")
    if base is None:
        return "note: the baseline records no fingerprint"
    cur = current_doc.get("fingerprint") or {}
    differ = sorted(k for k in base.keys() | cur.keys()
                    if base.get(k) != cur.get(k))
    if differ:
        return (f"note: fingerprints differ in {', '.join(differ)}; the "
                "runs may come from different machines or builds")
    return None


def compare(baseline, current, tolerance, out=sys.stdout):
    """Compares two flattened metric dicts; returns the process exit code.

    Gate failures: a common metric slower than baseline * (1 + tolerance),
    or a baseline metric absent from the current run. Metrics new in the
    current run are listed but never fail the gate. Under a speedup floor
    (negative tolerance) each line shows baseline / current.
    """
    if not baseline:
        print("error: no timing metrics found in the baseline", file=out)
        return 2
    if tolerance <= -1.0:
        print(f"error: tolerance {tolerance} leaves no allowed time",
              file=out)
        return 2
    floor = tolerance < 0.0

    removed = sorted(k for k in baseline if k not in current)
    added = sorted(k for k in current if k not in baseline)
    common = sorted(k for k in baseline if k in current)

    regressions = []
    width = max(len(k) for k in baseline)
    for key in common:
        old, new = baseline[key], current[key]
        if floor:
            shown = f"{old / new if new > 0 else float('inf'):5.2f}x faster"
        else:
            shown = f"{new / old if old > 0 else float('inf'):5.2f}x"
        flag = ""
        if new > old * (1.0 + tolerance):
            regressions.append((key, old, new))
            flag = "  REGRESSED"
        print(f"{key:<{width}}  {old:>12.6g}  ->  {new:>12.6g}"
              f"  ({shown}){flag}", file=out)
    for key in removed:
        print(f"{key:<{width}}  {baseline[key]:>12.6g}  ->  REMOVED",
              file=out)
    if added:
        print(f"\nnote: {len(added)} metric(s) only in the current run "
              "(no baseline yet, not gated):", file=out)
        for key in added:
            print(f"  {key}: {current[key]:.6g}", file=out)

    bound = (f"at least {1.0 / (1.0 + tolerance):.2f}x faster than"
             if floor else f"within {tolerance:.0%} of")
    if regressions or removed:
        # Failure lines carry the actual baseline and candidate values in
        # full significant-digit precision — a fixed one-decimal format used
        # to render sub-0.05 metrics as "0.0, +30.0%", leaving nothing to
        # act on in a CI log.
        print(f"\nFAIL:", file=out)
        if regressions:
            print(f"  {len(regressions)} metric(s) not {bound} the committed "
                  "baseline:", file=out)
            for key, old, new in regressions:
                ratio = new / old if old > 0 else float("inf")
                delta = 100.0 * (new - old) / old if old > 0 else float("inf")
                print(f"    {key}: baseline {old:.6g}, measured {new:.6g}, "
                      f"{ratio:.2f}x ({delta:+.1f}%)", file=out)
        if removed:
            print(f"  {len(removed)} baseline metric(s) missing from the "
                  "current run (renamed field or skipped case?):", file=out)
            for key in removed:
                print(f"    {key} (baseline {baseline[key]:.6g})", file=out)
        return 1
    print(f"\nOK: all {len(common)} common metrics {bound} the committed "
          "baseline.", file=out)
    return 0


def check_ratios(current, specs, out=sys.stdout):
    """Enforces NUM_KEY:DEN_KEY:FLOOR ratio floors on the current run.

    Each spec requires current[NUM_KEY] / current[DEN_KEY] >= FLOOR (e.g. a
    serial-over-parallel wall-time ratio — a speedup floor). Returns 0 when
    every floor holds, 1 on a failed or unevaluable floor, 2 on a malformed
    spec.
    """
    code = 0
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            print(f"error: malformed --min-ratio spec {spec!r} "
                  "(want NUM_KEY:DEN_KEY:FLOOR)", file=out)
            return 2
        num_key, den_key, floor_text = parts
        try:
            floor = float(floor_text)
        except ValueError:
            print(f"error: non-numeric floor in --min-ratio spec {spec!r}",
                  file=out)
            return 2
        missing = [k for k in (num_key, den_key) if k not in current]
        if missing:
            print(f"FAIL: --min-ratio {spec}: metric(s) missing from the "
                  f"current run: {', '.join(missing)}", file=out)
            code = max(code, 1)
            continue
        den = current[den_key]
        ratio = current[num_key] / den if den > 0 else float("inf")
        if ratio < floor:
            print(f"FAIL: --min-ratio {spec}: "
                  f"{current[num_key]:.6g} / {den:.6g} = {ratio:.3g} "
                  f"< required {floor:.3g}", file=out)
            code = max(code, 1)
        else:
            print(f"ratio OK: {num_key} / {den_key} = {ratio:.3g} "
                  f">= {floor:.3g}", file=out)
    return code


def gate(baseline_doc, current_doc, tolerance=0.20, min_ratios=(),
         out=sys.stdout):
    """Runs every check on two parsed documents; returns the exit code."""
    note = fingerprint_note(baseline_doc, current_doc)
    if note:
        print(note, file=out)
    current = collect_metrics(current_doc)
    code = compare(collect_metrics(baseline_doc), current, tolerance, out=out)
    return max(code, check_ratios(current, min_ratios, out=out))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON")
    parser.add_argument("--current", required=True,
                        help="freshly generated JSON to check")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative slowdown (default 0.20; "
                             "negative = required speedup)")
    parser.add_argument("--min-ratio", action="append", default=[],
                        metavar="NUM_KEY:DEN_KEY:FLOOR",
                        help="require current[NUM]/current[DEN] >= FLOOR "
                             "(repeatable; e.g. a parallel speedup floor)")
    args = parser.parse_args()

    docs = []
    for path in (args.baseline, args.current):
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    return gate(*docs, args.tolerance, args.min_ratio)


if __name__ == "__main__":
    sys.exit(main())
