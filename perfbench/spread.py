#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds 30]
                                [--trace 0] [workload ...]

For every workload (default: all in BENCHMARK.json) and end-to-end metric
(per-layer with --trace 1) it prints the median over the runs, the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), the metric's bound, and the share of
failed operations. This is how the bounds in BENCHMARK.json were checked.
Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for wl in args.workloads:
        values, shares, correct = {}, set(), True
        for i in range(args.runs):
            seed = args.first_seed + i
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", args.trace],
                capture_output=True, text=True)
            if p.returncode != 0:
                sys.stderr.write(p.stderr)
                sys.exit("run failed: %s seed %d" % (wl, seed))
            r = json.loads(p.stdout.strip().splitlines()[-1])
            correct = correct and r["correct"]
            shares.add(r["failed"] / r["attempted"])
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            print("%-16s %-34s median %12.6g  spread %.4f  bound %s  runs %s"
                  % (wl, k, med, spread, bounds.get(k, "-"),
                     " ".join("%.4g" % x for x in v)))
        print("%-16s correct %s, failed share %s"
              % (wl, correct, sorted(shares)))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
