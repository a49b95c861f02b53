#!/usr/bin/env python3
"""Builds and runs the repo's benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload paper-day --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --self-test     # the benchmark's own tests

The program is built from source (Release) into .bench_build/perfbench on
first use; build output goes to stderr so that the last line of stdout is
the benchmark's JSON result. Exits non-zero, without a result, when the
build fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
JOBS = "4"


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_test"):
            return 1
        return run_to_end([os.path.join(BUILD, "perfbench_test")])
    if not args.workload:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 1
    sys.stdout.flush()
    return run_to_end(
        [os.path.join(BUILD, "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", os.path.join(WORK, "out")])


def run_to_end(cmd):
    """Runs `cmd` from the repo root; stops it if this script is stopped."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
