#!/usr/bin/env python3
"""Repo-invariant linter: cross-cutting contracts the compiler cannot check.

Usage:
    lint_invariants.py [--root DIR]    # lint the tree (default: repo root)
    lint_invariants.py --self-test     # prove every rule actually fires

Seven rules, each a contract stated in the docs that previously lived only
in review discipline:

  R1  obs metric names at Registry call sites are Prometheus-valid
      ([a-zA-Z_:][a-zA-Z0-9_:]*) and counter names end in `_total`.
      (tools/check_prometheus.py lints the *exported* text; this rule moves
      the check to the source call site so a bad name fails before any
      bench runs.)

  R2  every `fault::inject("<site>")` site string in src/ is documented in
      docs/robustness.md — chaos plans are written against that inventory,
      so an undocumented site is an untestable failure path.

  R3  every public header under src/serve/ and src/util/ states its
      threading contract: the leading comment block (before the first line
      of code) must mention threading (/thread/i). Concurrency is these
      layers' API surface; a header silent about it is underspecified.

  R4  no naked standard synchronization primitives (std::mutex,
      std::lock_guard, std::unique_lock, std::scoped_lock, std::shared_mutex,
      std::condition_variable[_any]) anywhere in src/ outside
      src/util/mutex.hpp — the annotated util::Mutex/MutexLock/CondVar
      wrappers are the only lockable types Clang's thread-safety analysis
      can see, so a naked primitive is an unanalyzed critical section
      (docs/static-analysis.md).

  R5  the only OpenMP construct in src/ is the `omp simd` pragma (a
      vectorization hint compiled with -fopenmp-simd: no runtime, no
      threads). Any other OpenMP pragma, an include of the OpenMP runtime
      header or a call into the runtime API fails — kernels are
      single-threaded and parallelism lives in the task layer
      (docs/performance.md, "Threading model").

  R6  no registry counter in src/ is bumped by a computed difference
      (`->inc(a - b)` / `.inc(a - b)`): that is the delta-sync signature of
      a private counter copied into the registry after the fact, which
      lags and, with two concurrent syncs, wraps the counter backwards.
      Counters are bumped at the event (docs/observability.md, "One
      store").

  R7  the root CMakeLists.txt compiles `is2` with `-ffp-contract=off` as a
      PUBLIC option, so the library and every test, bench and example that
      links it never fuse `a*b+c` into an FMA. The bit-identity suites
      compare fast paths with their oracles bitwise; under an FMA-capable
      ISA flag a contraction in one path and not the other changes the last
      bit (docs/performance.md).

`--self-test` copies a minimal tree into a tempdir, seeds one violation per
rule, and asserts the linter exits nonzero having caught all seven — CI
runs this before the real lint so a silently-broken rule cannot pass the
tree.

Exit status: 0 clean, 1 on any violation (all violations are printed),
2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# Registry call sites: .counter("name" / .gauge("name" / .histogram("name".
REGISTRY_CALL_RE = re.compile(r"\.\s*(counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"")
FAULT_SITE_RE = re.compile(r"fault::inject\s*\(\s*\"([^\"]*)\"")
NAKED_SYNC_RE = re.compile(
    r"std::(mutex|lock_guard|unique_lock|scoped_lock|shared_mutex|"
    r"condition_variable(?:_any)?)\b"
)
THREAD_RE = re.compile(r"thread", re.IGNORECASE)
# R5's banned constructs are spelled from pieces (OMP) so that a repo-wide
# grep for them finds none in this file either.
OMP = "omp"
OMP_PRAGMA_RE = re.compile(r"#\s*pragma\s+" + OMP + r"\b(?!\s+simd\b)")
OMP_INCLUDE_RE = re.compile(r"#\s*include\s*[<\"]" + OMP + r"\.h[>\"]")
OMP_CALL_RE = re.compile(r"\b" + OMP + r"_\w+\s*\(")

# R6: a counter increment call; its argument is matched up to the closing
# paren, and a binary minus in it (not `->`, not `--`) is a delta.
COUNTER_INC_RE = re.compile(r"(?:->|\.)\s*inc\s*\(")
BINARY_MINUS_RE = re.compile(r"[\w)\]]\s*-(?![->=])\s*[\w(]")

CPP_EXTS = (".cpp", ".hpp", ".h", ".cc")

# R7: the PUBLIC no-contraction option on the is2 target.
FP_CONTRACT_RE = re.compile(
    r"target_compile_options\s*\(\s*is2\s+PUBLIC\b[^)]*-ffp-contract=off\b")


def iter_files(root: str, subdirs, exts=CPP_EXTS):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def strip_comments_and_strings(text: str) -> str:
    """Blank out //-comments, /* */-comments and string/char literals,
    preserving line structure so reported line numbers stay true."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:end]))
            i = end
        elif c == '"' or (c == "'" and not (i > 0 and text[i - 1].isalnum())):
            # A ' after a digit or letter is a digit separator (5'000.0),
            # not the start of a character literal.
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
            out.append(" ")
        else:
            out.append(c)
            i += 1
    return "".join(out)


def leading_comment_block(text: str) -> str:
    """The header's doc block: every line up to the first non-comment,
    non-blank line (the same region a human reads to learn the contract)."""
    lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped == "" or stripped.startswith("//"):
            lines.append(line)
        else:
            break
    return "\n".join(lines)


def rel(root: str, path: str) -> str:
    return os.path.relpath(path, root)


def check_r1_metric_names(root: str):
    """R1: Prometheus charset at every Registry call site; counters _total."""
    violations = []
    for path in iter_files(root, ("src", "bench", "examples")):
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        for lineno, line in enumerate(text.splitlines(), 1):
            for kind, name in REGISTRY_CALL_RE.findall(line):
                if not METRIC_NAME_RE.match(name):
                    violations.append(
                        f"R1 {rel(root, path)}:{lineno}: {kind} name '{name}' "
                        f"is not a valid Prometheus metric name"
                    )
                elif kind == "counter" and not name.endswith("_total"):
                    violations.append(
                        f"R1 {rel(root, path)}:{lineno}: counter name '{name}' "
                        f"must end in '_total'"
                    )
    return violations


def check_r2_fault_sites(root: str):
    """R2: every fault::inject site string in src/ appears in robustness.md."""
    violations = []
    doc_path = os.path.join(root, "docs", "robustness.md")
    try:
        with open(doc_path, encoding="utf-8", errors="replace") as f:
            doc = f.read()
    except OSError:
        return [f"R2 docs/robustness.md: missing (fault-site inventory lives here)"]
    for path in iter_files(root, ("src",)):
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        for lineno, line in enumerate(text.splitlines(), 1):
            for site in FAULT_SITE_RE.findall(line):
                if site not in doc:
                    violations.append(
                        f"R2 {rel(root, path)}:{lineno}: fault site '{site}' "
                        f"is not documented in docs/robustness.md"
                    )
    return violations


def check_r3_threading_contracts(root: str):
    """R3: serve/ and util/ public headers open with a threading contract."""
    violations = []
    for path in iter_files(root, (os.path.join("src", "serve"), os.path.join("src", "util")),
                           exts=(".hpp", ".h")):
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        if not THREAD_RE.search(leading_comment_block(text)):
            violations.append(
                f"R3 {rel(root, path)}:1: leading comment block states no "
                f"threading contract (must mention thread safety / affinity)"
            )
    return violations


def check_r4_naked_primitives(root: str):
    """R4: only src/util/mutex.hpp may name std synchronization primitives."""
    allowed = {os.path.join("src", "util", "mutex.hpp")}
    violations = []
    for path in iter_files(root, ("src",)):
        if rel(root, path) in allowed:
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            m = NAKED_SYNC_RE.search(line)
            if m:
                violations.append(
                    f"R4 {rel(root, path)}:{lineno}: naked std::{m.group(1)} — "
                    f"use util::Mutex/MutexLock/CondVar (src/util/mutex.hpp) so "
                    f"the thread-safety analysis sees the critical section"
                )
    return violations


def check_r5_openmp(root: str):
    """R5: the `omp simd` pragma is the only OpenMP construct allowed in src/."""
    violations = []
    for path in iter_files(root, ("src",)):
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
        code = strip_comments_and_strings(raw)
        for lineno, (line, raw_line) in enumerate(
                zip(code.splitlines(), raw.splitlines()), 1):
            # An include's "quoted" path is blanked in `code`: match it on
            # the raw line once the stripped line shows a real directive.
            include = re.match(r"\s*#\s*include\b", line) and OMP_INCLUDE_RE.search(raw_line)
            if OMP_PRAGMA_RE.search(line) or include or OMP_CALL_RE.search(line):
                violations.append(
                    f"R5 {rel(root, path)}:{lineno}: OpenMP construct other than "
                    f"the `omp simd` pragma — kernels are single-threaded; parallelism "
                    f"belongs to the task layer (docs/performance.md)"
                )
    return violations


def call_argument(text: str, open_paren: int) -> str:
    """The text between the paren at `open_paren` and its match."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i]
    return text[open_paren + 1:]


def check_r6_counter_deltas(root: str):
    """R6: counters are bumped at the event, never by a synced difference."""
    violations = []
    for path in iter_files(root, ("src",)):
        with open(path, encoding="utf-8", errors="replace") as f:
            code = strip_comments_and_strings(f.read())
        for m in COUNTER_INC_RE.finditer(code):
            arg = call_argument(code, m.end() - 1)
            if BINARY_MINUS_RE.search(arg):
                lineno = code.count("\n", 0, m.start()) + 1
                violations.append(
                    f"R6 {rel(root, path)}:{lineno}: counter bumped by a difference "
                    f"(inc({' '.join(arg.split())})) — count at the event instead of "
                    f"delta-syncing a private copy (docs/observability.md)"
                )
    return violations


def check_r7_fp_contract(root: str):
    """R7: is2 is built with a PUBLIC -ffp-contract=off."""
    path = os.path.join(root, "CMakeLists.txt")
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError:
        return ["R7 CMakeLists.txt:1: missing (the is2 target's compile options live here)"]
    code = "\n".join(line.split("#", 1)[0] for line in lines)
    if FP_CONTRACT_RE.search(code):
        return []
    return [
        "R7 CMakeLists.txt:1: no `target_compile_options(is2 PUBLIC ... -ffp-contract=off)` — "
        "without it an FMA-capable ISA flag can fuse a*b+c in one path of a bit-identity "
        "pair and not the other"
    ]


def run_lint(root: str) -> int:
    violations = []
    violations += check_r1_metric_names(root)
    violations += check_r2_fault_sites(root)
    violations += check_r3_threading_contracts(root)
    violations += check_r4_naked_primitives(root)
    violations += check_r5_openmp(root)
    violations += check_r6_counter_deltas(root)
    violations += check_r7_fp_contract(root)
    for v in violations:
        print(v)
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        return 1
    print("lint_invariants: clean")
    return 0


def self_test() -> int:
    """Seed one violation per rule in a scratch tree; all seven must fire."""
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        os.makedirs(os.path.join(tmp, "src", "serve"))
        os.makedirs(os.path.join(tmp, "src", "util"))
        os.makedirs(os.path.join(tmp, "docs"))
        with open(os.path.join(tmp, "docs", "robustness.md"), "w") as f:
            f.write("# Robustness\n\nFault sites: `disk.read`.\n")
        # R1: counter missing _total; R2: undocumented fault site.
        with open(os.path.join(tmp, "src", "serve", "bad_metrics.cpp"), "w") as f:
            f.write(
                'void wire(R& r) {\n'
                '  r.counter("is2_requests", {}, "no _total suffix");\n'
                '  util::fault::inject("cache.undocumented", 0);\n'
                '}\n'
            )
        # R3: header with no threading contract. R4 control: the std::mutex
        # here is inside a comment and a string, so it must NOT fire.
        with open(os.path.join(tmp, "src", "util", "silent.hpp"), "w") as f:
            f.write(
                "// A header that says nothing about its locking story.\n"
                "#pragma once\n"
                "// std::mutex in a comment is fine\n"
                'inline const char* kDoc = "std::lock_guard in a string is fine";\n'
            )
        # R4: a real naked primitive.
        with open(os.path.join(tmp, "src", "serve", "naked.cpp"), "w") as f:
            f.write("#include <mutex>\nstd::mutex g_lock;\n")
        # R5: a threaded OpenMP loop. Controls: the simd hint and the
        # commented-out pragma must NOT fire; the digit separators around the
        # violation must not hide it as a character literal.
        pragma = "#pragma " + OMP
        with open(os.path.join(tmp, "src", "util", "kernel.cpp"), "w") as f:
            f.write(
                "void scale(float* v, int n) {\n"
                f"{pragma} simd\n"
                "  for (int i = 0; i < n; ++i) v[i] *= 2'000.0f;\n"
                f"  // {pragma} parallel for is fine in a comment\n"
                f"{pragma} parallel for\n"
                "  for (int i = 0; i < n; ++i) v[i] += 1'000.0f;\n"
                "}\n"
            )
        # R6: a counter bumped by a synced difference (line 4). Controls: an
        # event increment, a gauge moved by a delta, an arrow inside the
        # argument and a commented-out delta must NOT fire.
        with open(os.path.join(tmp, "src", "serve", "tier.cpp"), "w") as f:
            f.write(
                "void on_hit(Tier& t, const Totals& now) {\n"
                "  t.hits->inc();\n"
                "  t.bytes->add(static_cast<double>(now.bytes) - t.seen_bytes);\n"
                "  t.hits->inc(static_cast<std::uint64_t>(now.hits) - t.synced.hits);\n"
                "  t.windows->inc(now.batch->size());\n"
                "  // t.misses->inc(now.misses - t.synced.misses);\n"
                "}\n"
            )

        # R7: the flag only in a comment and as a PRIVATE option — neither
        # reaches the tests and benches, so the rule must still fire.
        with open(os.path.join(tmp, "CMakeLists.txt"), "w") as f:
            f.write(
                "add_library(is2 STATIC a.cpp)\n"
                "# target_compile_options(is2 PUBLIC -ffp-contract=off)\n"
                "target_compile_options(is2 PRIVATE -Wall -ffp-contract=off)\n"
            )

        found = []
        found += check_r1_metric_names(tmp)
        found += check_r2_fault_sites(tmp)
        found += check_r3_threading_contracts(tmp)
        found += check_r4_naked_primitives(tmp)
        found += check_r5_openmp(tmp)
        found += check_r6_counter_deltas(tmp)
        found += check_r7_fp_contract(tmp)
        for v in found:
            print(f"  seeded: {v}")

        fired = {v.split()[0] for v in found}
        missing = {"R1", "R2", "R3", "R4", "R5", "R6", "R7"} - fired
        if missing:
            print(f"self-test FAILED: rule(s) did not fire: {sorted(missing)}")
            return 1
        r4_hits = [v for v in found if v.startswith("R4")]
        if any("silent.hpp" in v for v in r4_hits):
            print("self-test FAILED: R4 fired on a comment/string occurrence")
            return 1
        r5_hits = [v for v in found if v.startswith("R5")]
        if [v.split()[1] for v in r5_hits] != [os.path.join("src", "util", "kernel.cpp") + ":5:"]:
            print(f"self-test FAILED: R5 must fire on the parallel pragma only, got {r5_hits}")
            return 1
        r6_hits = [v for v in found if v.startswith("R6")]
        if [v.split()[1] for v in r6_hits] != [os.path.join("src", "serve", "tier.cpp") + ":4:"]:
            print(f"self-test FAILED: R6 must fire on the counter delta only, got {r6_hits}")
            return 1
        # R7 control: the PUBLIC option itself, split over lines, passes.
        with open(os.path.join(tmp, "CMakeLists.txt"), "w") as f:
            f.write("target_compile_options(is2\n  PUBLIC -ffp-contract=off)\n")
        if check_r7_fp_contract(tmp):
            print("self-test FAILED: R7 fired on a PUBLIC -ffp-contract=off")
            return 1
        if run_lint_exit_nonzero(tmp) != 1:
            print("self-test FAILED: lint on a seeded tree must exit 1")
            return 1
        print("self-test passed: every rule fires, comments/strings exempt")
        return 0


def run_lint_exit_nonzero(root: str) -> int:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_lint(root)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="tree to lint (default: the repo containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="seed one violation per rule and assert detection")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = args.root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"lint_invariants: no src/ under {root}", file=sys.stderr)
        return 2
    return run_lint(root)


if __name__ == "__main__":
    sys.exit(main())
