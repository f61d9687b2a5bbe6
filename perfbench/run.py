#!/usr/bin/env python3
"""Builds and runs the alpa-cpp benchmark.

    python3 perfbench/run.py --workload compile-fig8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
library from ../src together with the benchmark driver under
.bench_build/perfbench (CMake, Ninja when available); later runs only check
that the build is current. The driver's last stdout line, one JSON object
with the keys correct/attempted/failed/metrics, is printed as this script's
last line. A failed build, a failed correctness check or a timeout exits
non-zero without printing a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "alpa_perfbench")
WORKLOADS = ("compile-fig8", "serve-mix")
# Workloads that were planned but are not run on their own, and why.
FOLDED = {
    "exec-train": "exec-train is not a workload of its own: every run must print every "
                  "end-to-end metric, so every run already compiles the three fig8 models "
                  "(~30 s for steady medians); a third workload would not fit the benchmark's "
                  "time budget. Its ExecutePlan iterations, bit-exact check and kernel timings "
                  "run interleaved in both compile-fig8 and serve-mix.",
}
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at %s/src; run from a full checkout" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", BUILD_DIR, "--target", "alpa_perfbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + tuple(FOLDED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short mode for the benchmark's own tests")
    args = parser.parse_args()
    if args.workload in FOLDED:
        log("perfbench: " + FOLDED[args.workload])
        return 4

    if not build():
        log("perfbench: build failed")
        return 2

    work_dir = os.path.join(".bench_build", "run-%d" % os.getpid())
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-out", os.path.join(
            ".bench_build", "spans-%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: driver exited with %d" % proc.returncode)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        log("perfbench: malformed or incorrect result")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
