#!/usr/bin/env python3
"""Self-test of tools/perf_pairs.py over two stub perfbench binaries.

Each stub is a small script that logs its arguments and prints the
canned output of one perfbench run: "#   name value unit" lines, then
the JSON line. The tests check the alternating order, the --golden
argument, the medians, quartiles, win counts and IQR verdicts, and
that an incorrect run, a failed op or a crashed run makes the tool
exit 1.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(os.path.dirname(HERE), "tools", "perf_pairs.py")

STUB = """#!{python}
import json, sys
config = json.load(open({config!r}))
with open({log!r}, "a") as log:
    log.write({name!r} + " " + " ".join(sys.argv[1:]) + "\\n")
with open({log!r}) as log:
    run = sum(1 for line in log if line.startswith({name!r} + " ")) - 1
if run in config.get("crash", []):
    sys.exit(3)
print("# perfbench workload=stub")
print("#   op_p50_ms  %s ms" % config["wall"][run])
print(json.dumps({{
    "correct": run not in config.get("incorrect", []),
    "attempted": 100,
    "failed": 2 if run in config.get("failed", []) else 0,
    "metrics": {{"op_cpu_p50_ms": {{"value": config["cpu"][run],
                                    "unit": "ms"}},
                 "runtime.jobs_per_eval": {{"value": config["ratio"][run],
                                            "unit": "ratio"}}}}}}))
"""


class PerfPairs(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.log = os.path.join(self.dir.name, "log.txt")

    def tearDown(self):
        self.dir.cleanup()

    def stub(self, name, config):
        path = os.path.join(self.dir.name, name)
        config_path = path + ".json"
        with open(config_path, "w") as f:
            json.dump(config, f)
        with open(path, "w") as f:
            f.write(STUB.format(python=sys.executable, config=config_path,
                                log=self.log, name=name))
        os.chmod(path, 0o755)
        return path

    def run_tool(self, parent, change, pairs, extra=()):
        return subprocess.run(
            [sys.executable, TOOL, "--parent", parent, "--change", change,
             "--workloads", "pareto_sweep", "--seeds", "1",
             "--pairs", str(pairs), "--seconds", "0.5"] + list(extra),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def test_alternates_and_summarizes(self):
        parent = self.stub("parent", {
            "cpu": [10.0, 12.0, 11.0, 13.0], "wall": [20, 20, 20, 20],
            "ratio": [6.5, 6.5, 6.5, 6.5]})
        change = self.stub("change", {
            "cpu": [5.0, 6.0, 14.0, 5.5], "wall": [19, 21, 19, 21],
            "ratio": [5.5, 5.5, 5.5, 5.5]})
        report = os.path.join(self.dir.name, "report.json")
        proc = self.run_tool(parent, change, 4, ["--json", report])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

        with open(self.log) as f:
            calls = [line.split() for line in f]
        self.assertEqual([c[0] for c in calls],
                         ["parent", "change", "change", "parent",
                          "parent", "change", "change", "parent"])
        golden = os.path.join(os.path.dirname(HERE), "perfbench", "golden",
                              "digests.txt")
        for c in calls:
            self.assertEqual(c[c.index("--golden") + 1], golden)
            self.assertEqual(c[c.index("--workload") + 1], "pareto_sweep")
            self.assertEqual(c[c.index("--seed") + 1], "1")
            self.assertEqual(c[c.index("--trace") + 1], "0")

        with open(report) as f:
            rows = {r["metric"]: r for r in json.load(f)[0]["rows"]}
        cpu = rows["op_cpu_p50_ms"]
        self.assertEqual(cpu["parent"], [10.75, 11.5, 12.25])
        self.assertEqual(cpu["change"], [5.375, 5.75, 8.0])
        self.assertEqual(cpu["wins"], 3)
        self.assertEqual(cpu["pairs"], 4)
        self.assertTrue(cpu["gap_beyond_iqr"])
        # Higher is better for jobs_per_eval (BENCHMARK.json), so the
        # change loses every pair.
        self.assertEqual(rows["runtime.jobs_per_eval"]["wins"], 0)
        # A "#   name value unit" line counts as a metric too. Both
        # medians are 20, so the gap does not exceed the parent's IQR.
        wall = rows["op_p50_ms"]
        self.assertEqual(wall["wins"], 2)
        self.assertFalse(wall["gap_beyond_iqr"])
        self.assertIn("op_cpu_p50_ms", proc.stdout)
        self.assertIn("3/4", proc.stdout)

    def expect_failure(self, change_config):
        base = {"cpu": [1.0, 1.0], "wall": [1, 1], "ratio": [1.0, 1.0]}
        parent = self.stub("parent", base)
        change = self.stub("change", dict(base, **change_config))
        proc = self.run_tool(parent, change, 2)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("change pareto_sweep seed 1 pair", proc.stderr)
        return proc

    def test_incorrect_run_exits_1(self):
        proc = self.expect_failure({"incorrect": [1]})
        self.assertIn('"correct": false', proc.stderr)

    def test_failed_op_exits_1(self):
        proc = self.expect_failure({"failed": [0]})
        self.assertIn("2 failed ops", proc.stderr)

    def test_crashed_run_exits_1(self):
        proc = self.expect_failure({"crash": [0]})
        self.assertIn("exit code 3", proc.stderr)


if __name__ == "__main__":
    unittest.main()
