#!/usr/bin/env python3
"""Builds and runs the ddc benchmark from a repository checkout.

    python3 perfbench/run.py --workload mixed-readers --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The library and the benchmark binary are compiled from source (CMake,
Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when it
is unset, relative to the checkout root. Build output goes to stderr; the
benchmark's stdout passes through, so its last line is the result object.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run exits within this many seconds (the binary caps its own rounds well
# below it); the build has its own, longer limit.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(build_dir):
    jobs = str(max(1, (os.cpu_count() or 2) - 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "ddc_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.join(build_root(), "perfbench")
    work_dir = os.path.join(build_root(), "perfbench-run")
    os.makedirs(work_dir, exist_ok=True)
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "ddc_perfbench"), "--work-dir=" + work_dir]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload=" + args.workload, "--seed=" + str(args.seed),
                "--seconds=" + repr(args.seconds), "--trace=" + str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
