#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's median and
quartile spread (Q3 - Q1 over the median), the statistic its bounds are
judged by.

    python3 rmbench/spread.py --workload serve-churn --seeds 1-10

Run it from the repository root. The command and run length come from
BENCHMARK.json; each run's last output line is parsed as the benchmark's
result object.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        note = f"  bound {bound} (a third: {bound / 3:.4f})"
        print(f"{name:40s} median {med:<14.6g} spread {spread:.4f}{note}")
        print("    " + " ".join(f"{v:.6g}" for v in vs))


if __name__ == "__main__":
    main()
