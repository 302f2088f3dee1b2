#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload drain-columnar --seed 1 \
        --seconds 10 --trace 0 [--smoke]

It builds the library and the benchmark in Release into .bench_build/
(once; later runs rebuild incrementally), generates the workload's inputs
from the seed in a separate process, runs the benchmark, and ends with the
benchmark's JSON result line. Build and generation output goes to stderr.
The exit code is non-zero when building, generating or any correctness
check fails. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
WORKLOADS = ("drain-columnar", "drain-row", "serve-skyquery")
BUILD_TIMEOUT_S = 840
# Generation and the measured run together, after the build.
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
        return 1


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"library sources not found under {ROOT}")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD), "-j", jobs,
                "--target", "perfbench", "oracle_test"]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (BUILD / "CMakeCache.txt").is_file() or run_logged(
            compile_, BUILD_TIMEOUT_S) != 0:
        # No build yet, or one from another source tree: start afresh.
        shutil.rmtree(BUILD, ignore_errors=True)
        left = max(1, int(deadline - time.monotonic()))
        if run_logged(configure, left) != 0:
            return False
        left = max(1, int(deadline - time.monotonic()))
        if run_logged(compile_, left) != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: every check in seconds")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("build failed")
        return 1
    binary = BUILD / "perfbench"
    WORK.mkdir(exist_ok=True)
    inputs = WORK / f"{args.workload}-{args.seed}.in"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir()
    smoke = ["--smoke"] if args.smoke else []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        if run_logged([str(binary), "gen", "--workload", args.workload,
                       "--seed", str(args.seed), "--out", str(inputs)]
                      + smoke, RUN_TIMEOUT_S) != 0:
            log("input generation failed")
            return 1
        left = deadline - time.monotonic()
        if left < 1:
            log("no time left to run after input generation")
            return 1
        try:
            result = subprocess.run(
                [str(binary), "run", "--workload", args.workload,
                 "--seed", str(args.seed), "--inputs", str(inputs),
                 "--work", str(WORK), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)] + smoke,
                stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                timeout=left)
        except subprocess.TimeoutExpired:
            log(f"run timed out after {RUN_TIMEOUT_S} s with generation")
            return 1
        sys.stdout.write(result.stdout)
        sys.stdout.flush()
        return result.returncode
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
