#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload gemm_matrix --seeds 1-10 \\
        --seconds 10 [--trace 0|1] [--out runs.jsonl]

For every metric it prints the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. Every run must report "correct": true. Each run's
JSON result is appended to --out when given, so two sets (say, a parent
commit and a change) can be compared later.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    values = {}
    units = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect result: %s" % (seed, lines[-1]))
            return 1
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload,
                                    "seed": seed, "result": result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print("%-34s %14s %8s  %s" % ("metric", "median", "spread", "unit"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print("%-34s %14.6g %8.4f  %s" % (name, med, spread, units[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
