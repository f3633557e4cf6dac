#!/usr/bin/env python3
"""Self-tests for tools/lint_determinism.py.

Each rule must fire on a seeded violation, stay quiet on clean code,
and honor the `// lint-allow(<rule>): reason` escape hatch — proving
in CI that the lint is live, not silently matching nothing.

Run directly (python3 tests/test_lint.py) or via the lint_selftest
ctest. Exit 0 on success.
"""

import io
import os
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stdout, redirect_stderr

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools"))
import lint_determinism as lint  # noqa: E402


class LintHarness(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="lint_test_")
        os.makedirs(os.path.join(self.root, "src", "core"))
        os.makedirs(os.path.join(self.root, "src", "common"))

    def tearDown(self):
        shutil.rmtree(self.root)

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)

    def run_lint(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = lint.main(["--root", self.root])
        return status, out.getvalue() + err.getvalue()

    def assert_fires(self, rule, snippet, rel="src/core/bad.cc"):
        self.write(rel, snippet)
        status, output = self.run_lint()
        self.assertEqual(status, 1, output)
        self.assertIn("[%s]" % rule, output)
        os.remove(os.path.join(self.root, rel))

    def assert_clean(self, snippet, rel="src/core/ok.cc"):
        self.write(rel, snippet)
        status, output = self.run_lint()
        self.assertEqual(status, 0, output)
        os.remove(os.path.join(self.root, rel))


class TestForbiddenApis(LintHarness):
    def test_rand_fires(self):
        self.assert_fires("no-rand", "int x = rand();\n")

    def test_srand_fires(self):
        self.assert_fires("no-rand", "void f() { srand(42); }\n")

    def test_operand_is_not_rand(self):
        self.assert_clean("int y = operand(3);\n")

    def test_random_device_fires(self):
        self.assert_fires("no-random-device",
                          "std::random_device rd;\n")

    def test_random_device_allowed_in_common_random(self):
        self.assert_clean("std::random_device rd;\n",
                          rel="src/common/random.cc")

    def test_system_clock_fires(self):
        self.assert_fires(
            "no-wall-clock",
            "auto t = std::chrono::system_clock::now();\n")

    def test_c_time_fires(self):
        self.assert_fires("no-wall-clock", "auto t = time(nullptr);\n")

    def test_steady_clock_clean(self):
        self.assert_clean(
            "auto t = std::chrono::steady_clock::now();\n")

    def test_runtime_is_not_time(self):
        self.assert_clean("double r = runtime(x);\n")

    def test_getenv_fires(self):
        self.assert_fires("no-raw-env",
                          "const char *s = getenv(\"X\");\n")

    def test_atoi_fires(self):
        self.assert_fires("no-raw-env", "int n = atoi(argv[1]);\n")

    def test_env_cc_exempt(self):
        self.assert_clean("const char *s = std::getenv(\"X\");\n",
                          rel="src/common/env.cc")

    def test_comments_and_strings_ignored(self):
        self.assert_clean(
            "// std::atoi would mis-parse; rand() is worse\n"
            "const char *doc = \"never call getenv() directly\";\n")


class TestUnorderedIter(LintHarness):
    def test_range_for_over_unordered_fires(self):
        self.assert_fires(
            "no-unordered-iter",
            "std::unordered_set<int> seen;\n"
            "void f() { for (const int x : seen) emit(x); }\n")

    def test_member_declared_in_header_fires(self):
        self.write("src/core/svc.hh",
                   "struct S {\n"
                   "  std::unordered_map<int, int> table_;\n"
                   "};\n")
        self.assert_fires(
            "no-unordered-iter",
            "#include \"core/svc.hh\"\n"
            "void S::dump() { for (auto &kv : table_) emit(kv); }\n",
            rel="src/core/svc.cc")
        os.remove(os.path.join(self.root, "src/core/svc.hh"))

    def test_vector_iteration_clean(self):
        self.assert_clean(
            "std::vector<int> v;\n"
            "void f() { for (const int x : v) emit(x); }\n")


class TestNanBlindRange(LintHarness):
    def test_strict_bounds_fire(self):
        self.assert_fires(
            "no-nan-blind-range",
            "void f(double x) { if (x < 0.0 || x > 1.0) fail(x); }\n")

    def test_inclusive_bounds_fire(self):
        self.assert_fires(
            "no-nan-blind-range",
            "void f(double p) { if (p <= 0.0 || p >= 1.0) edge(p); }\n")

    def test_member_over_two_lines_fires(self):
        self.assert_fires(
            "no-nan-blind-range",
            "void f(const S &s) {\n"
            "    if (s.weight < 0.0 ||\n"
            "        s.weight >= 1.0) fail();\n"
            "}\n")

    def test_nan_safe_form_clean(self):
        self.assert_clean(
            "void f(double x) { if (!(0.0 <= x && x <= 1.0)) fail(x); }\n")

    def test_integer_bounds_clean(self):
        self.assert_clean(
            "int f(int k, int n) { if (k < 0 || k > n) return 0; "
            "return 1; }\n")

    def test_two_variables_clean(self):
        self.assert_clean(
            "void f(double a, double b) { if (a < 0.0 || b > 1.0) g(); }\n")

    def test_allow_suppresses(self):
        self.assert_clean(
            "// lint-allow(no-nan-blind-range): a NaN takes the else path\n"
            "void f(double x) { if (x < 0.0 || x > 1.0) edge(x); }\n")


class TestNanBlindGuard(LintHarness):
    def test_one_sided_guard_before_fatal_fires(self):
        self.assert_fires(
            "no-nan-blind-guard",
            "double f(double v) {\n"
            "    if (v <= 0.0)\n"
            "        fatal(msgOf(\"bad \", v));\n"
            "    return v;\n"
            "}\n")

    def test_member_guard_before_panic_fires(self):
        self.assert_fires(
            "no-nan-blind-guard",
            "void f(const P &p) { if (p.x < 1.0) { panic(\"x\"); } }\n")

    def test_nan_safe_form_clean(self):
        self.assert_clean(
            "void f(double v) { if (!(v > 0.0)) fatal(\"bad\"); }\n")

    def test_integer_guard_clean(self):
        self.assert_clean(
            "void f(int n) { if (n < 1) fatal(\"bad\"); }\n")

    def test_guard_that_only_returns_clean(self):
        self.assert_clean(
            "double f(double p) { if (p <= 0.0) return 1.0; "
            "return p; }\n")

    def test_allow_suppresses(self):
        self.assert_clean(
            "// lint-allow(no-nan-blind-guard): NaN is checked above\n"
            "void f(double v) { if (v <= 0.0) fatal(\"bad\"); }\n")


class TestAllowEscapeHatch(LintHarness):
    def test_allow_with_reason_suppresses(self):
        self.assert_clean(
            "// lint-allow(no-rand): seeding the demo fixture only\n"
            "int x = rand();\n")

    def test_trailing_allow_suppresses(self):
        self.assert_clean(
            "int x = rand(); "
            "// lint-allow(no-rand): fixture, not simulation\n")

    def test_multiline_comment_reaches_code(self):
        self.assert_clean(
            "// lint-allow(no-rand): the reason is long enough\n"
            "// that it wraps onto a second comment line\n"
            "int x = rand();\n")

    def test_allow_without_reason_is_violation(self):
        self.assert_fires("lint-allow",
                          "// lint-allow(no-rand)\nint x = rand();\n")

    def test_allow_wrong_rule_does_not_suppress(self):
        self.assert_fires(
            "no-rand",
            "// lint-allow(no-wall-clock): wrong rule named\n"
            "int x = rand();\n")


class TestRepoTree(unittest.TestCase):
    def test_real_tree_is_clean(self):
        repo = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = lint.main(["--root", repo])
        self.assertEqual(status, 0,
                         out.getvalue() + err.getvalue())


if __name__ == "__main__":
    unittest.main(verbosity=2)
