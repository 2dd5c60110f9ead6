#!/usr/bin/env python3
"""End-to-end benchmark of the IS2 sea-ice pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch_campaign --seed 1 --seconds 16 --trace 0

Builds the `perfbench` binary from source on first use (CMake, Release, into
`.bench_build/perfbench`), then runs one workload. The binary prints its
environment and progress, and as the last line of standard output one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
Exits non-zero when a correctness check fails (the result then reads
"correct": false), and without a result line when the build fails or the
metrics differ from the ones BENCHMARK.json declares.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("batch_campaign", "train_lstm", "serve_zipf")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build the binary; return its path or None on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("the is2 sources (CMakeLists.txt, src/) are not next to perfbench/")
        return None
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout's last line is the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(cmd))
                return None
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 2
    work = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--workdir", work]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    problem = check_result(lines[-1], args.trace) if lines else "no output"
    if problem:
        # Progress lines only: a result that breaks the contract is not printed.
        print("\n".join(lines[:-1]), flush=True)
        log(problem)
        return proc.returncode or 4
    print("\n".join(lines), flush=True)
    return proc.returncode


def check_result(line, trace):
    """Return why `line` is not a valid result, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last output line is not a JSON result"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"metrics differ from BENCHMARK.json: missing {missing} extra {extra} unit {wrong}"
    return None

if __name__ == "__main__":
    sys.exit(main())
