#!/usr/bin/env python3
"""Compare two perfbench binaries in alternating pairs of runs.

Run from anywhere:

    python3 tools/perf_pairs.py --parent OLD/perfbench --change NEW/perfbench \\
        --workloads pareto_sweep,gemm_matrix --seeds 1,2 --pairs 10 \\
        --seconds 30

For each workload and seed, each pair runs both binaries once with
--golden perfbench/golden/digests.txt, and the side that goes first
alternates from one pair to the next (parent first in pair 1), so a
drift in host load falls on both sides alike. For every metric a run
reports, in its JSON line or in its "#   name value unit" lines, the
summary gives each side's median and quartiles, the change's relative
difference, how many pairs the change won, and whether the medians lie
further apart than the parent's interquartile range. Whether lower or
higher is better comes from BENCHMARK.json (per_layer and end_to_end);
ops_per_s is higher-is-better, every other metric lower-is-better.

Exit status: 0 when every run was correct, 1 when any run reported
"correct": false or a failed op, exited non-zero or printed no JSON
line, 2 on a usage error.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "perfbench", "golden", "digests.txt")
SHOWN_RE = re.compile(r"^#\s+(\S+)\s+(\S+)\s+(\S+)\s*$")


def higher_is_better():
    """Metric names where a larger value is better."""
    names = {"ops_per_s"}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError):
        return names
    for key in ("end_to_end", "per_layer"):
        for m in bench.get(key, []):
            if m.get("better") == "higher":
                names.add(m["name"])
    return names


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def run_once(binary, workload, seed, args):
    """One perfbench run: (metrics, error message or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", GOLDEN]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        return {}, "exit code %d: %s" % (proc.returncode,
                                         proc.stderr.strip())
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}, "no JSON line in its output"
    metrics = {}
    for name, m in result.get("metrics", {}).items():
        metrics[name] = float(m["value"])
    for line in lines[:-1]:
        match = SHOWN_RE.match(line)
        if match and match.group(1) not in metrics:
            try:
                metrics[match.group(1)] = float(match.group(2))
            except ValueError:
                pass
    if result.get("correct") is not True:
        return metrics, '"correct": %s' % json.dumps(result.get("correct"))
    if result.get("failed", 0) != 0:
        return metrics, "%s failed ops" % result["failed"]
    return metrics, None


def summarize(parent_runs, change_runs, higher):
    """One row per metric present in every run of both sides."""
    names = [n for n in parent_runs[0] if
             all(n in r for r in parent_runs + change_runs)]
    rows = []
    for name in names:
        p = [r[name] for r in parent_runs]
        c = [r[name] for r in change_runs]
        pm, cm = quantile(p, 0.5), quantile(c, 0.5)
        iqr = quantile(p, 0.75) - quantile(p, 0.25)
        better = (lambda a, b: a > b) if name in higher else \
            (lambda a, b: a < b)
        rows.append({
            "metric": name,
            "parent": [quantile(p, 0.25), pm, quantile(p, 0.75)],
            "change": [quantile(c, 0.25), cm, quantile(c, 0.75)],
            "delta": (cm - pm) / pm if pm else 0.0,
            "wins": sum(1 for a, b in zip(c, p) if better(a, b)),
            "pairs": len(p),
            "gap_beyond_iqr": abs(cm - pm) > iqr,
        })
    return rows


def print_rows(workload, seed, rows):
    print("\n%s seed %s" % (workload, seed))
    print("%-28s %34s %34s %8s %6s %8s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "change", "wins", "gap>IQR"))
    for r in rows:
        side = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
        print("%-28s %34s %34s %+7.1f%% %6s %8s" % (
            r["metric"], side(r["parent"]), side(r["change"]),
            100.0 * r["delta"], "%d/%d" % (r["wins"], r["pairs"]),
            "yes" if r["gap_beyond_iqr"] else "no"))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="the parent commit's perfbench binary")
    parser.add_argument("--change", required=True,
                        help="the change's perfbench binary")
    parser.add_argument("--workloads", default="pareto_sweep",
                        help="comma-separated workload names")
    parser.add_argument("--seeds", default="1", help="comma-separated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run length of each run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default="",
                        help="also write every run and row to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    higher = higher_is_better()
    failures = []
    report = []
    for workload in args.workloads.split(","):
        for seed in args.seeds.split(","):
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ["parent", "change"]
                if pair % 2 == 1:
                    order.reverse()
                for side in order:
                    binary = args.parent if side == "parent" else \
                        args.change
                    metrics, error = run_once(binary, workload, seed, args)
                    if error:
                        failures.append("%s %s seed %s pair %d: %s" % (
                            side, workload, seed, pair + 1, error))
                        print("perf_pairs: " + failures[-1],
                              file=sys.stderr)
                    runs[side].append(metrics)
            rows = summarize(runs["parent"], runs["change"], higher)
            print_rows(workload, seed, rows)
            report.append({"workload": workload, "seed": seed,
                           "runs": runs, "rows": rows})
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    if failures:
        print("\nperf_pairs: %d run(s) failed" % len(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
