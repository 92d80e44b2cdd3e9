#!/usr/bin/env python3
"""Runs perfbench/run.py over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload term-zipf --seeds 1-10

For every metric it prints the median, the quartiles and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, the figure BENCHMARK.json's bounds are set
against. --seconds defaults to BENCHMARK.json's run_seconds. --json FILE
also writes them (perfbench/baseline.json holds the committed ones).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as _f:
    RUN_SECONDS = json.load(_f)["run_seconds"]


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args()

    values, runs = {}, []
    for seed in args.seeds:
        start = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "wall_s": round(time.time() - start, 1),
                     "attempted": result["attempted"],
                     "failed": result["failed"]})
        print("seed %d: wall %.1fs attempted=%d failed=%d" % (
            seed, time.time() - start, result["attempted"],
            result["failed"]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        print("%-34s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f" % (
            name, median, q1, q3, spread))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs,
                       "metrics": summary}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
