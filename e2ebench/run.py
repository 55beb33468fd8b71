#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 e2ebench/run.py --workload vm_fault_churn --seed 1 \
        --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

The simulator libraries (../src) and the benchmark (harness/) are built with
CMake into $CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench at the
repository root when that variable is unset. Build output goes to
stderr. The benchmark's stdout is passed through; its last line is the
JSON result. The exit code is the benchmark's, or 2 when the sources or the
toolchain are missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vm_fault_churn", "shared_kernel_hot", "db_cluster")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "e2ebench")


def build(out):
    """Configure (once) and build; returns the benchmark binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except FileNotFoundError:
            fail("cmake not found")
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "e2ebench")
    if not os.access(binary, os.X_OK):
        fail("benchmark binary missing after build")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="determinism self-test instead of a run")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    out = build_dir()
    binary = build(out)
    if args.self_test:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    if args.self_test or res.returncode != 0:
        return res.returncode
    lines = res.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("e2ebench: no JSON result printed", file=sys.stderr)
        return 1
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
