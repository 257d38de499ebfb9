#!/usr/bin/env python3
"""Run one workload N times, each with another seed, and report how steady
each end-to-end metric is against its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --workload sweep [--runs 10] [--first-seed 1]
        [--seconds S]

Run from the root of a checkout. For every metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, the metric's bound, and spread / bound. A metric is
steady when its spread stays below a third of its bound. It also prints the share of failed operations, which must be the same in
every run. Use it to set the bounds, and rerun it when the host changes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        command = [sys.executable, os.path.join("perfbench", "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {out.returncode})", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect", file=sys.stderr)
            sys.exit(1)
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        summary = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              f"{summary}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}"
          f"{'spread/bound':>14}")
    steady = True
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        ratio = spread / bound if bound else float("nan")
        flag = ""
        if bound and ratio >= 1.0 / 3.0:
            flag = "  <- unsteady"
            steady = False
        print(f"{name:<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}"
              f"{bound if bound else float('nan'):>8.3f}{ratio:>14.3f}{flag}")
    same_share = len(set(shares)) == 1
    print(f"failed share: {sorted(set(shares))} ({'constant' if same_share else 'VARIES'})")
    sys.exit(0 if steady and same_share else 1)


if __name__ == "__main__":
    main()
