#!/usr/bin/env python3
"""Bench regression gate: compare fresh WFRM_BENCH_JSON lines to baseline.json.

Usage:
    compare_bench.py --baseline bench/baseline.json \
        --results bench-results/*.jsonl [--write comparison.json]

The baseline stores real_ns per benchmark measured on one reference
machine. CI runners have different absolute speed, so raw nanosecond
comparison is meaningless; instead the script computes a per-benchmark
throughput ratio (baseline_real_ns / new_real_ns, >1 means faster) and
normalizes every ratio by the *median* ratio across all benchmarks the
two runs share. The median captures the machine-speed factor; a genuine
regression shows up as a normalized ratio well below 1 on one benchmark
while the rest of the suite sits near 1.

Failure conditions:
  * any benchmark marked "gate": true in the baseline whose normalized
    throughput dropped by more than max_drop (default 0.25), or
  * the metrics-on warm pipeline slower than metrics-off by more than
    obs_overhead_limit (default 0.05). BM_Obs_WarmPipelineOverhead
    measures both inside one run, in alternating blocks whose order
    swaps every iteration, and reports the ratio of the two medians
    (counter on_off_ratio), so no normalization is involved and drift
    in machine speed lands on both sides.

Exit status 0 on pass, 1 on regression, 2 on usage/data errors.
"""

import argparse
import json
import statistics
import sys


def load_baseline(path):
    with open(path) as f:
        baseline = json.load(f)
    if "benchmarks" not in baseline:
        sys.exit(f"error: {path} has no 'benchmarks' key")
    return baseline


def load_results(paths):
    """Merge JSON-lines results; the last line per benchmark name wins."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    run = json.loads(line)
                except json.JSONDecodeError as e:
                    sys.exit(f"error: {path}:{lineno}: bad JSON line: {e}")
                runs[run["name"]] = run
    return runs


def compare(baseline, runs, max_drop, obs_limit):
    rows = []
    shared = []
    for name, entry in sorted(baseline["benchmarks"].items()):
        run = runs.get(name)
        if run is None or run.get("real_ns", 0) <= 0:
            rows.append({"name": name, "status": "missing",
                         "gate": entry.get("gate", False)})
            continue
        ratio = entry["real_ns"] / run["real_ns"]
        shared.append(ratio)
        rows.append({"name": name, "gate": entry.get("gate", False),
                     "baseline_real_ns": entry["real_ns"],
                     "real_ns": run["real_ns"], "throughput_ratio": ratio})

    # Benchmarks present in the results but absent from the baseline are
    # a distinct category from regressions: a freshly added bench lands
    # here (status "new", informational, never gated) until someone
    # records a baseline entry for it.
    result_only = sorted(set(runs) - set(baseline["benchmarks"]))
    new_benchmarks = [{"name": name, "status": "new",
                       "real_ns": runs[name].get("real_ns", 0)}
                      for name in result_only]

    if not shared:
        sys.exit("error: no benchmarks shared between baseline and results")

    machine_factor = statistics.median(shared)
    failures = []
    for row in rows:
        if "throughput_ratio" not in row:
            if row["gate"]:
                failures.append(f"{row['name']}: gated benchmark missing "
                                "from results")
            continue
        row["normalized_ratio"] = row["throughput_ratio"] / machine_factor
        row["status"] = "ok"
        if row["gate"] and row["normalized_ratio"] < 1.0 - max_drop:
            row["status"] = "regressed"
            failures.append(
                f"{row['name']}: normalized throughput "
                f"{row['normalized_ratio']:.2f}x of baseline "
                f"(limit {1.0 - max_drop:.2f}x)")

    # Interleaved observability-overhead check: metrics-on must stay
    # within obs_limit of metrics-off, both measured in the same run.
    obs = {}
    paired = runs.get("BM_Obs_WarmPipelineOverhead", {}).get("counters", {})
    if paired.get("on_off_ratio", 0) > 0:
        overhead = paired["on_off_ratio"] - 1.0
        obs = {"metrics_on_ns": paired.get("metrics_on_ns"),
               "metrics_off_ns": paired.get("metrics_off_ns"),
               "overhead": overhead, "limit": obs_limit}
        if overhead > obs_limit:
            failures.append(
                f"metrics-enabled pipeline {overhead * 100:.1f}% slower "
                f"than disabled (limit {obs_limit * 100:.0f}%)")
    else:
        failures.append("BM_Obs_WarmPipelineOverhead missing from results")

    return {"machine_factor": machine_factor, "max_drop": max_drop,
            "benchmarks": rows, "result_only": result_only,
            "new_benchmarks": new_benchmarks,
            "obs_overhead": obs, "failures": failures}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--results", nargs="+", required=True,
                        help="one or more WFRM_BENCH_JSON .jsonl files")
    parser.add_argument("--max-drop", type=float, default=None,
                        help="fail when a gated benchmark's normalized "
                             "throughput drops more than this fraction "
                             "(default: baseline's max_drop, else 0.25)")
    parser.add_argument("--obs-overhead-limit", type=float, default=None,
                        help="max metrics-on vs metrics-off slowdown "
                             "(default: baseline's obs_overhead_limit, "
                             "else 0.05)")
    parser.add_argument("--write", help="write the comparison JSON here")
    args = parser.parse_args()

    baseline = load_baseline(args.baseline)
    runs = load_results(args.results)
    max_drop = (args.max_drop if args.max_drop is not None
                else baseline.get("max_drop", 0.25))
    obs_limit = (args.obs_overhead_limit if args.obs_overhead_limit is not None
                 else baseline.get("obs_overhead_limit", 0.05))

    report = compare(baseline, runs, max_drop, obs_limit)

    print(f"machine speed factor (median ratio): "
          f"{report['machine_factor']:.2f}x")
    print(f"{'benchmark':<50} {'base ns':>12} {'new ns':>12} "
          f"{'norm':>6}  gate")
    for row in report["benchmarks"]:
        if "normalized_ratio" not in row:
            print(f"{row['name']:<50} {'--':>12} {'--':>12} {'--':>6}  "
                  f"{'GATE ' if row['gate'] else ''}missing")
            continue
        flag = "GATE" if row["gate"] else ""
        mark = "  << REGRESSED" if row["status"] == "regressed" else ""
        print(f"{row['name']:<50} {row['baseline_real_ns']:>12.0f} "
              f"{row['real_ns']:>12.0f} {row['normalized_ratio']:>5.2f}x  "
              f"{flag}{mark}")
    if report["new_benchmarks"]:
        print("\nnew benchmarks (in results, not in baseline — "
              "informational, never gated):")
        for row in report["new_benchmarks"]:
            print(f"  NEW {row['name']:<46} {row['real_ns']:>12.0f} ns")
    if report["obs_overhead"]:
        o = report["obs_overhead"]
        print(f"observability overhead: {o['overhead'] * 100:+.1f}% "
              f"(limit {o['limit'] * 100:.0f}%)")

    if args.write:
        with open(args.write, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    if report["failures"]:
        print("\nFAIL:")
        for failure in report["failures"]:
            print(f"  {failure}")
        return 1
    print("\nPASS: no gated regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
