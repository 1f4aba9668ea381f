#!/usr/bin/env python3
"""Project lint for hamlet: repo-specific invariants no stock tool checks.

Rules
-----
  env-docs        Every getenv("HAMLET_*") site in src/ must appear in the
                  README environment-variable table, and every table row
                  must have a live getenv site (doc drift in either
                  direction fails).
  determinism     No raw std::thread construction, rand()/srand(),
                  std::random_device, or wall-clock reads
                  (std::chrono::system_clock, time(), gettimeofday,
                  clock_gettime(CLOCK_REALTIME)) in src/ outside the
                  allowlist below. hamlet's reproducibility contract says
                  randomness flows from seeded generators and parallelism
                  flows through common/parallel; a stray rand() or thread
                  breaks bit-identical reruns silently. steady_clock is
                  fine (timing measurements, not schedule decisions).
  unordered-iter  No range-for over an unordered_map/unordered_set in
                  src/: iteration order is unspecified, so anything
                  derived from it (output lines, aggregates in float
                  arithmetic, serialized bytes) can differ run to run.
  test-reg        Every tests/*_test.cc must be registered in
                  tests/CMakeLists.txt — an unregistered suite compiles
                  green in nobody's build and rots.
  float-flags     No value-changing floating-point compiler flag
                  (-ffast-math, -Ofast, -funsafe-math-optimizations,
                  -fassociative-math, -freciprocal-math,
                  -ffp-contract=fast) in any CMakeLists.txt or *.cmake
                  under src/, cmake/, tests/, bench/ or examples/. They
                  let the compiler reassociate or contract arithmetic, so
                  results would stop being bit-identical to the test
                  oracles and across builds. Flags that change no value,
                  such as -fno-math-errno, are fine.

Waivers: append `// hamlet-lint: allow(<rule>)` to the offending line
(rule is one of: determinism, unordered-iter). env-docs and test-reg are
cross-file properties with no meaningful per-line waiver, and float-flags
has none on purpose.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
Run from anywhere: paths resolve relative to the repo root (parent of
this script's directory). `--root DIR` overrides, for the self-test.
"""

import argparse
import os
import re
import sys

# std::thread is allowed only where the threading layer itself lives:
# the pool, and the socket front-end (acceptor + reader threads are its
# documented design; see net_server.h).
DETERMINISM_ALLOWLIST = {
    "src/hamlet/common/parallel.cc",
    "src/hamlet/serve/net/net_server.h",
    "src/hamlet/serve/net/net_server.cc",
    "src/hamlet/serve/hamlet_serve_main.cc",
}

WAIVER_RE = re.compile(r"//\s*hamlet-lint:\s*allow\(([a-z-]+)\)")

ENV_SITE_RE = re.compile(r'getenv\s*\(\s*"(HAMLET_[A-Z0-9_]+)"')
ENV_DOC_RE = re.compile(r"^\|\s*`(HAMLET_[A-Z0-9_]+)`\s*\|")

DETERMINISM_PATTERNS = [
    (re.compile(r"\bstd::thread\b"), "std::thread",
     "spawn through common/parallel so HAMLET_THREADS governs it"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()",
     "use a seeded SplitMix64/engine so reruns are bit-identical"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device",
     "nondeterministic seed source; thread the seed from config"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock",
     "wall clock; use steady_clock for intervals"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0|&)"), "time()",
     "wall clock; use steady_clock for intervals"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday",
     "wall clock; use steady_clock for intervals"),
    (re.compile(r"\bclock_gettime\s*\(\s*CLOCK_REALTIME"),
     "clock_gettime(CLOCK_REALTIME)",
     "wall clock; use steady_clock for intervals"),
]

UNORDERED_ITER_RE = re.compile(
    r"for\s*\(.*:\s*\w[\w\->\.\[\]\(\)]*unordered_(?:map|set)|"
    r"for\s*\(.*:\s*[^)]*\bunordered_\w+<[^)]*\)")

# Range-for whose sequence expression mentions a variable we saw declared
# as an unordered container in the same file. Two-pass: collect declared
# names, then flag `for (... : name)`.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+(\w+)\s*[;{=(]")

TEST_REG_RE = re.compile(r"([A-Za-z0-9_]+_test\.cc)")

FLOAT_FLAG_DIRS = ("src", "cmake", "tests", "bench", "examples")
FLOAT_FLAG_RE = re.compile(
    r"(?<![\w-])(-ffast-math|-Ofast|-funsafe-math-optimizations|"
    r"-fassociative-math|-freciprocal-math|-ffp-contract=fast)(?![\w=-])")


def strip_comments_and_strings(line):
    """Removes string/char literals and // comments so pattern hits in
    documentation or messages don't count. Keeps the waiver comment
    readable by operating on a copy. Block comments are handled by the
    caller's state flag."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '"' or c == "'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append('""' if quote == '"' else "''")
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []

    def add(self, path, lineno, rule, msg):
        self.findings.append((path, lineno, rule, msg))

    def rel(self, path):
        return os.path.relpath(path, self.root).replace(os.sep, "/")

    def source_files(self, subdir, exts=(".h", ".cc")):
        base = os.path.join(self.root, subdir)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)

    # -- env-docs ------------------------------------------------------
    def check_env_docs(self):
        sites = {}  # var -> first "file:line"
        for path in self.source_files("src"):
            rel = self.rel(path)
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    for var in ENV_SITE_RE.findall(line):
                        sites.setdefault(var, "%s:%d" % (rel, lineno))
        documented = set()
        readme = os.path.join(self.root, "README.md")
        if os.path.exists(readme):
            with open(readme, encoding="utf-8") as f:
                for line in f:
                    m = ENV_DOC_RE.match(line.strip())
                    if m:
                        documented.add(m.group(1))
        for var in sorted(set(sites) - documented):
            self.add(sites[var], 0, "env-docs",
                     "%s is read here but missing from the README "
                     "environment-variable table" % var)
        for var in sorted(documented - set(sites)):
            self.add("README.md", 0, "env-docs",
                     "%s is documented in the README table but no "
                     "getenv site in src/ reads it" % var)

    # -- determinism + unordered-iter (per-line scans) -----------------
    def check_source_rules(self):
        for path in self.source_files("src"):
            rel = self.rel(path)
            decl_names = set()
            in_block_comment = False
            lines = open(path, encoding="utf-8").read().splitlines()
            stripped_lines = []
            for raw in lines:
                line = raw
                if in_block_comment:
                    end = line.find("*/")
                    if end < 0:
                        stripped_lines.append("")
                        continue
                    line = line[end + 2:]
                    in_block_comment = False
                # Remove complete /* ... */ spans, then detect an opener.
                line = re.sub(r"/\*.*?\*/", "", line)
                start = line.find("/*")
                if start >= 0:
                    line = line[:start]
                    in_block_comment = True
                stripped_lines.append(strip_comments_and_strings(line))
            for code in stripped_lines:
                for name in UNORDERED_DECL_RE.findall(code):
                    decl_names.add(name)
            iter_res = [
                re.compile(r"for\s*\(\s*[^;)]*:\s*" + re.escape(name) +
                           r"\s*\)")
                for name in decl_names
            ]
            for lineno, (raw, code) in enumerate(zip(lines, stripped_lines),
                                                 1):
                waiver = WAIVER_RE.search(raw)
                waived = waiver.group(1) if waiver else None
                if rel not in DETERMINISM_ALLOWLIST and waived != \
                        "determinism":
                    for pat, what, why in DETERMINISM_PATTERNS:
                        if pat.search(code):
                            self.add(rel, lineno, "determinism",
                                     "%s in src/ (%s)" % (what, why))
                if waived != "unordered-iter":
                    hit = UNORDERED_ITER_RE.search(code) or any(
                        r.search(code) for r in iter_res)
                    if hit:
                        self.add(
                            rel, lineno, "unordered-iter",
                            "range-for over an unordered container: "
                            "iteration order is unspecified; sort first "
                            "or waive with "
                            "// hamlet-lint: allow(unordered-iter)")

    # -- test-reg ------------------------------------------------------
    def check_test_registration(self):
        tests_dir = os.path.join(self.root, "tests")
        cml = os.path.join(tests_dir, "CMakeLists.txt")
        if not os.path.isdir(tests_dir):
            return
        registered = set()
        if os.path.exists(cml):
            with open(cml, encoding="utf-8") as f:
                registered = set(TEST_REG_RE.findall(f.read()))
        for name in sorted(os.listdir(tests_dir)):
            if name.endswith("_test.cc") and name not in registered:
                self.add("tests/" + name, 0, "test-reg",
                         "test suite is not registered in "
                         "tests/CMakeLists.txt; it builds in nobody's "
                         "tree")

    # -- float-flags ---------------------------------------------------
    def check_float_flags(self):
        for subdir in FLOAT_FLAG_DIRS:
            for path in self.source_files(
                    subdir, exts=(".cmake", "CMakeLists.txt")):
                rel = self.rel(path)
                with open(path, encoding="utf-8") as f:
                    for lineno, line in enumerate(f, 1):
                        code = line.split("#", 1)[0]
                        for flag in FLOAT_FLAG_RE.findall(code):
                            self.add(rel, lineno, "float-flags",
                                     "%s changes floating-point results; "
                                     "the determinism contract needs "
                                     "bit-identical arithmetic" % flag)

    def run(self):
        self.check_env_docs()
        self.check_source_rules()
        self.check_test_registration()
        self.check_float_flags()
        return self.findings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repo root (default: parent of this script's directory)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")) and not os.path.isdir(
            os.path.join(root, "tests")):
        print("hamlet_lint: %s has neither src/ nor tests/" % root,
              file=sys.stderr)
        return 2
    findings = Linter(root).run()
    for path, lineno, rule, msg in findings:
        loc = "%s:%d" % (path, lineno) if lineno else path
        print("%s: [%s] %s" % (loc, rule, msg))
    if findings:
        print("hamlet_lint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    print("hamlet_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
