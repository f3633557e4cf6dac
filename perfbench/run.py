#!/usr/bin/env python3
"""Build the HighLight benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pareto_sweep --seed 1 \\
        --seconds 10 --trace 0

Workloads: pareto_sweep, gemm_matrix, microsim_fig16. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) as an
optimized CMake build; the binary's output is passed through, so the
last stdout line is the JSON result. Build logs go to stderr. Extra
flags (--threads T) are forwarded to the binary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: the library sources (src/, CMakeLists.txt) are "
              "not next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                         ".bench_build", "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 2

    binary = os.path.join(build, "perfbench")
    golden = os.path.join(HERE, "golden", "digests.txt")
    return subprocess.run([binary] + argv + ["--golden", golden]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
