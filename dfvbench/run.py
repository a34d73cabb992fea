#!/usr/bin/env python3
"""Builds the DFV benchmark from source and runs one workload.

Usage (from the repository root):

    python3 dfvbench/run.py --workload prove-suite --seed 1 --seconds 40 \
        --trace 0

Workloads: prove-suite, bug-hunt, cosim-stream.  The build goes to
.bench_build/dfvbench (Release), run reports to .bench_build/dfvbench-work.
Build output goes to stderr; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}.  Exits non-zero, printing no
result, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dfvbench")
WORK = os.path.join(ROOT, ".bench_build", "dfvbench-work")
WORKLOADS = ("prove-suite", "bug-hunt", "cosim-stream")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("dfvbench: no library sources (src/) next to dfvbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(BUILD, "dfvbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"dfvbench: build failed: {e}")
    os.makedirs(WORK, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("dfvbench: run timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"dfvbench: run failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"dfvbench: malformed result keys {sorted(result)}")
    sys.stdout.write(proc.stdout)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
