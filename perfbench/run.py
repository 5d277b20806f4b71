#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the `lap` library from
src/ plus the lap_perfbench driver) under .bench_build/; later calls only
let the build tool confirm it is up to date.  The driver's stdout is passed
through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}.

Extra options for the self-test: --scale <f> multiplies every workload's
trace size, --doctor 1 corrupts one run result so the correctness gate
must count it as failed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = "perfbench"
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD_DIR, "lap_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt); run from the root "
             "of a checkout")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            step(cmd)
        jobs = str(min(4, os.cpu_count() or 1))
        step(["cmake", "--build", BUILD_DIR, "-j", jobs])


def step(cmd):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--doctor", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--scale", str(args.scale),
           "--doctor", str(args.doctor)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"lap_perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last output line is not JSON")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail("malformed result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
