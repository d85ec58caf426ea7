#!/usr/bin/env python3
"""Builds and runs the wfrm stack benchmark.

Run from the repository root:

    python3 stackbench/run.py --workload acquire_wal --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds an optimized binary (and the wfrm
libraries it links) under .bench_build/; later calls only re-check the
configuration and the build. Each run works in a fresh directory under .bench_build/ and
removes it afterwards. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit status
is 0 only when every correctness check passed. See stackbench/README.md
for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("acquire_wal", "enforce_zipf", "policy_churn")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the stackbench binary; output goes to stderr."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "stackbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "stackbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, ".bench_build")
    try:
        binary = build(os.path.join(out_dir, "stackbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"stackbench: build failed: {e}", file=sys.stderr)
        return 2

    run_dir = os.path.join(out_dir, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", run_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("stackbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
