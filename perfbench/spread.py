#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload service-mixed --runs 10 [--seconds S]

For every metric it prints the median of the runs and the quartile spread
(Q3 - Q1) / median from stats.quartile_spread, next to the metric's bound
from BENCHMARK.json and a third of it, the steadiness target. Seeds are
1..runs unless --first-seed moves them. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        status = "ok" if proc.returncode == 0 and result.get("correct") else "FAILED"
        print(f"seed {seed}: {status}", flush=True)
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':32} {'median':>12} {'spread':>8} {'bound':>6} {'bound/3':>8}")
    for name, vals in values.items():
        if args.verbose:
            print(f"  {name}: " + " ".join(f"{v:.4g}" for v in vals))
        spread = stats.quartile_spread(vals) if len(vals) >= 2 else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- not steady"
        print(f"{name:32} {statistics.median(vals):12.6g} {spread:8.3f} "
              f"{bound if bound is not None else '-':>6} "
              f"{bound / 3 if bound is not None else float('nan'):8.3f}{flag}")


if __name__ == "__main__":
    main()
