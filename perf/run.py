#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perf/run.py --workload <bulk_tx|rpc_rx|crash> --seed <n>
                        --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and compiles the
simulator and the harness (perf/CMakeLists.txt) into .bench_build/; later
runs only check that the build is current.  Build output goes to stderr.

The benchmark's own output goes to stdout; its last line is one JSON object
with the keys correct, attempted, failed and metrics.  The metric names and
units are checked against BENCHMARK.json before that line is printed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "newtos_perf")
BINARY = os.path.join(BUILD_DIR, "newtos_perf")
TIMEOUT_S = 170


def fail(msg):
    print("perf/run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "testbed.h")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        # Runs sharing a checkout build one at a time.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", PERF_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr):
                fail("configure failed")
        if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr):
            fail("build failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, \
        [w["name"] for w in spec["workloads"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    expected, workloads = declared_metrics(args.trace)
    if args.workload not in workloads:
        fail("unknown workload " + args.workload)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result (exit %d)" % proc.returncode)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
