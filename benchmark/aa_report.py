#!/usr/bin/env python3
"""Turns the result lines of aa.sh into CALIBRATION.md (on standard output).

For every (metric, workload) pair: the median of set a and of set b, the gap
between the two medians, and each set's quartile spread (Q3 - Q1 over the
median, quartiles as statistics.quantiles(values, n=4) gives them).  The bound
of a metric is the largest of its starting bound, twice its widest gap and its
widest spread, rounded up to a whole percent.
"""

import json
import math
import os
import statistics
import sys

WORKLOADS = ["wal_append", "inplace_rw", "meta_churn", "kv_ycsb_a", "crash_recover"]
# name -> (starting bound, better)
METRICS = {
    "setup_s": (0.10, "lower"),
    "wall_kops": (0.06, "higher"),
    "cpu_ns_per_op": (0.06, "lower"),
    "op_p50_ns": (0.06, "lower"),
    "op_p95_ns": (0.10, "lower"),
    "sim_ns_per_op": (0.005, "lower"),
    "sim_sw_ns_per_op": (0.005, "lower"),
    "pm_write_amp": (0.005, "lower"),
    "peak_rss_mib": (0.05, "lower"),
}


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(out_dir):
    sets = {s: {w: load(os.path.join(out_dir, f"{s}-{w}.jsonl")) for w in WORKLOADS} for s in "ab"}
    runs = len(sets["a"][WORKLOADS[0]])
    wrong = [
        (s, w, r["failed"])
        for s in "ab"
        for w in WORKLOADS
        for r in sets[s][w]
        if not r["correct"] or r["failed"]
    ]

    print("# A/A calibration\n")
    print(
        f"`benchmark/aa.sh {runs}`: the untraced suite twice on the same code, as two"
        f" interleaved sets of {runs} runs each (seeds 1..{runs} in both), on"
        f" {os.cpu_count()} CPUs.  Medians are over a set's runs; *gap* is the distance"
        " between the two medians as a share of set a's; *spread* is Q3 - Q1 over the"
        " median within one set (`statistics.quantiles(values, n=4)`).  Host times are"
        " scaled to the nominal host speed (README, \"Noise protocol\").\n"
    )
    print(f"Runs with a wrong result: {len(wrong)}" + (f" {wrong}" if wrong else "") + ".\n")

    bounds = {}
    for metric, (start, better) in METRICS.items():
        print(f"## `{metric}` ({better} is better, starting bound {start:.1%})\n")
        print("| workload | median a | median b | gap | spread a | spread b |")
        print("|---|---|---|---|---|---|")
        need = start
        for w in WORKLOADS:
            a = [r["metrics"][metric]["value"] for r in sets["a"][w]]
            b = [r["metrics"][metric]["value"] for r in sets["b"][w]]
            ma, mb = statistics.median(a), statistics.median(b)
            gap = abs(mb - ma) / ma
            sa, sb = spread(a), spread(b)
            need = max(need, 2 * gap, sa, sb)
            print(f"| {w} | {ma:.6g} | {mb:.6g} | {gap:.2%} | {sa:.2%} | {sb:.2%} |")
        bounds[metric] = math.ceil(need * 100 - 1e-9) / 100 if need > 0.005 else start
        print(f"\nNeeds {need:.2%}; bound **{bounds[metric]:.1%}**.\n")

    print("## Bounds\n")
    print(
        "max(starting bound, 2 x widest gap, widest spread), rounded up to a whole percent."
        "  `BENCHMARK.json` carries these with head-room (README, \"Noise protocol\"):\n"
    )
    print("| metric | bound |")
    print("|---|---|")
    for metric, bound in bounds.items():
        note = " (over the contract's 25 % cap)" if bound > 0.25 else ""
        print(f"| `{metric}` | {bound:.3g}{note} |")


if __name__ == "__main__":
    main(sys.argv[1])
