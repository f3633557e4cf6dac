#!/usr/bin/env python3
"""Repo-specific determinism lint.

The codebase's headline property is byte-identical output and exact
counters at any thread count. A handful of C/C++ APIs silently break
that property; this lint keeps them out of the tree:

  no-rand           rand()/srand(): hidden global state, not seeded
                    through common/random's explicit Rng.
  no-random-device  std::random_device: nondeterministic entropy.
                    Allowed only inside src/common/random.* where the
                    explicit-seed policy is implemented.
  no-wall-clock     time(), std::chrono::system_clock: wall-clock
                    reads make output depend on when the run happened.
                    steady_clock (durations, deadlines, backoff) is
                    fine — it never feeds output.
  no-unordered-iter range-for over a std::unordered_* container:
                    iteration order is implementation-defined, so any
                    result derived from it is not reproducible.
  no-raw-env        getenv()/atoi()/atol(): env knobs must go through
                    src/common/env.{hh,cc} (strict parsing, one
                    auditable getenv).
  no-nan-blind-range
                    one variable tested against two floating-point
                    literals joined by ||, as in `x < 0.0 || x > 1.0`:
                    every comparison with NaN is false, so a NaN
                    passes the check. Write `!(0.0 <= x && x <= 1.0)`.
  no-nan-blind-guard
                    an `if` whose whole condition is one variable
                    compared with a floating-point literal, as in
                    `if (v <= 0.0)`, when the next statement calls
                    fatal( or panic(: a NaN skips the error. Write
                    `if (!(v > 0.0))`.

Escape hatch — on the offending line or the line just above:

    // lint-allow(<rule>): <reason>

The reason is mandatory; an allow without one is itself a violation.

Usage: lint_determinism.py [--root DIR]
Exit status: 0 clean, 1 violations found, 2 usage/setup error.
"""

import argparse
import os
import re
import sys

# Directories scanned relative to the root, when present.
SCAN_DIRS = ("src", "examples", "bench")
SOURCE_EXTS = (".cc", ".cpp", ".hh", ".h", ".hpp")

ALLOW_RE = re.compile(r"//\s*lint-allow\(([\w-]+)\)\s*(?::\s*(.*))?$")

# rule name -> (regex on comment/string-stripped code, message)
PATTERN_RULES = {
    "no-rand": (
        re.compile(r"\b(?:s?rand)\s*\("),
        "rand()/srand() use hidden global state; draw from "
        "common/random's explicitly seeded Rng",
    ),
    "no-random-device": (
        re.compile(r"\brandom_device\b"),
        "std::random_device is nondeterministic entropy; seed an Rng "
        "explicitly (see src/common/random.hh)",
    ),
    "no-wall-clock": (
        re.compile(r"\bsystem_clock\b|(?<![\w:.>])time\s*\("),
        "wall-clock reads make results depend on when the run "
        "happened; use steady_clock for durations and never let time "
        "feed output",
    ),
    "no-raw-env": (
        re.compile(r"\b(?:getenv|atoi|atol)\s*\("),
        "raw getenv/atoi bypass the strict parsing in "
        "src/common/env.hh (stringFromEnv / positiveIntFromEnv)",
    ),
}

# rule -> path substrings (relative, '/'-separated) where it is moot.
RULE_ALLOWED_PATHS = {
    "no-random-device": ("src/common/random.",),
    "no-raw-env": ("src/common/env.",),
}

# no-nan-blind-range: `<side> || <side>`, each side a variable (plain,
# or a member through . or ->) compared with a floating-point literal,
# in either order. A literal needs a '.' or an exponent, so integer
# checks such as `k < 0 || k > n` never match. The second side is a
# lookahead, so a chain `a <= 0.0 || a > 1.0 || b ...` is scanned pair
# by pair.
_VAR = r"[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*"
_FLT = (r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?"
        r"|\d+[eE][-+]?\d+)[fFlL]?")
_CMP = r"(?:<=|>=|<|>)"
_SIDE = r"(?:%s\s*%s\s*%s|%s\s*%s\s*%s)(?![\w.(\[])" % (
    _VAR, _CMP, _FLT, _FLT, _CMP, _VAR)
NAN_BLIND_RE = re.compile(r"(?<![\w.>])(%s)\s*\|\|\s*(?=(%s))"
                          % (_SIDE, _SIDE))
SIDE_VAR_RE = re.compile(r"(?<![\w.])(%s)\s*%s|%s\s*(%s)"
                         % (_VAR, _CMP, _CMP, _VAR))

# no-nan-blind-guard: `if (<side>)` as the whole condition, then
# (inside an optional brace) a call to fatal( or panic(.
NAN_BLIND_GUARD_RE = re.compile(
    r"\bif\s*\(\s*(%s)\s*\)\s*\{?\s*(?:\w+::)*(?:fatal|panic)\s*\("
    % _SIDE)

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>[ \t\n]*"
    r"&?[ \t\n]*([A-Za-z_]\w*)"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*?:\s*([^)]+)\)")


def strip_code(text):
    """Blank out comments and string/char literals with spaces,
    preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif ch == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and
                                 i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif ch in "\"'":
            quote = ch
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                    continue
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def collect_allows(lines):
    """Map line number (1-based) -> set of allowed rules; also return
    violations for allow comments that lack a reason."""
    allowed = {}
    bad = []
    for idx, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), (m.group(2) or "").strip()
        if not reason:
            bad.append((idx, "lint-allow(%s) without a reason; write "
                             "// lint-allow(%s): <why>" % (rule, rule)))
            continue
        # The allow applies to its own line (trailing comment) and to
        # the next code line (skipping the rest of a multi-line
        # comment block above the code).
        allowed.setdefault(idx, set()).add(rule)
        target = idx + 1
        while (target <= len(lines) and
               lines[target - 1].lstrip().startswith("//")):
            target += 1
        allowed.setdefault(target, set()).add(rule)
    return allowed, bad


def path_exempt(rel, rule):
    return any(frag in rel for frag in RULE_ALLOWED_PATHS.get(rule, ()))


def lint_file(root, rel, violations):
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    lines = text.split("\n")
    allowed, bad_allows = collect_allows(lines)
    for lineno, msg in bad_allows:
        violations.append((rel, lineno, "lint-allow", msg))

    code = strip_code(text)  # no comments, no strings
    code_lines = code.split("\n")

    def report(lineno, rule, msg):
        if rule in allowed.get(lineno, ()):
            return
        violations.append((rel, lineno, rule, msg))

    for rule, (rx, msg) in PATTERN_RULES.items():
        if path_exempt(rel, rule):
            continue
        for idx, line in enumerate(code_lines, start=1):
            if rx.search(line):
                report(idx, rule, msg)

    for m in NAN_BLIND_RE.finditer(code):
        first, second = (SIDE_VAR_RE.search(side)
                         for side in (m.group(1), m.group(2)))
        var = first.group(1) or first.group(2)
        if var != (second.group(1) or second.group(2)):
            continue
        lineno = code.count("\n", 0, m.start()) + 1
        report(lineno, "no-nan-blind-range",
               "'%s' is range-checked with ||, which a NaN passes "
               "(every comparison with NaN is false); write "
               "!(lo <= %s && %s <= hi), or lint-allow with a reason"
               % (var, var, var))

    for m in NAN_BLIND_GUARD_RE.finditer(code):
        side = SIDE_VAR_RE.search(m.group(1))
        var = side.group(1) or side.group(2)
        lineno = code.count("\n", 0, m.start()) + 1
        report(lineno, "no-nan-blind-guard",
               "'%s' is guarded by one comparison, which a NaN fails, "
               "so the error is skipped; write the passing condition "
               "negated, as in if (!(%s > 0.0)), or lint-allow with a "
               "reason" % (var, var))

    # no-unordered-iter: range-for whose sequence is an identifier
    # declared with an unordered_* type in this file or in one of its
    # repo-local includes (class members live in the header, the
    # offending loops in the .cc).
    unordered_names = set(UNORDERED_DECL_RE.findall(code))
    for inc in re.findall(r'#include\s+"([^"]+)"', text):
        for base_dir in (os.path.join(root, "src"),
                         os.path.dirname(path)):
            inc_path = os.path.join(base_dir, inc)
            if os.path.exists(inc_path):
                with open(inc_path, encoding="utf-8") as f:
                    inc_code = strip_code(f.read())
                unordered_names |= set(
                    UNORDERED_DECL_RE.findall(inc_code))
                break
    if unordered_names:
        for m in RANGE_FOR_RE.finditer(code):
            seq = m.group(1).strip()
            base = re.split(r"[.\->(\[]", seq)[-1] or seq
            base = base.strip().lstrip("*&")
            if base in unordered_names:
                lineno = code.count("\n", 0, m.start()) + 1
                report(lineno, "no-unordered-iter",
                       "iterating '%s' (std::unordered_*) has "
                       "implementation-defined order; iterate a sorted "
                       "view, or lint-allow if provably "
                       "order-independent" % base)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print("lint_determinism: no such directory: %s" % root,
              file=sys.stderr)
        return 2

    files = []
    for d in SCAN_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.relpath(
                        os.path.join(dirpath, name), root))
    files.sort()

    violations = []
    for rel in files:
        lint_file(root, rel, violations)

    for rel, lineno, rule, msg in violations:
        print("%s:%d: [%s] %s" % (rel, lineno, rule, msg))
    if violations:
        print("lint_determinism: %d violation(s) in %d file(s) scanned"
              % (len(violations), len(files)), file=sys.stderr)
        return 1
    print("lint_determinism: clean (%d files scanned)" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
