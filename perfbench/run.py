#!/usr/bin/env python3
"""Build and run the pcmscrub benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_slice --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The simulator libraries (../src) and the pcmbench program in this
directory are built with CMake into .bench_build/ at the checkout root
(incremental after the first run). pcmbench's standard output is
passed through; its last line is the JSON result. Build output goes to
standard error.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pcmbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S):
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", BUILD, "--target", "pcmbench",
                      "-j", jobs], BUILD_TIMEOUT_S):
        fail("building the benchmark failed")


def git_describe():
    """The checkout's git description, or 'unknown' outside git."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=10, check=False)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        desc = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                               "--dirty", "--tags"], capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return desc.stdout.strip() if desc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be a whole number")

    build()
    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--git-describe", git_describe()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"pcmbench exited with status {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    if not args.selftest:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if not isinstance(result, dict) or set(result) != RESULT_KEYS:
            sys.stderr.write(done.stdout)
            fail("pcmbench printed no valid result line")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
