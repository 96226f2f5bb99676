#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload higgs-exact --seed 1 --trace 0

Run it from the repository root.  The first call configures and builds
perfbench/ (a CMake package that compiles the library under src/ next to the
benchmark program) in .bench_build/perfbench with the Release build type;
later calls only rebuild what changed.  Build output goes to stderr, so the
last line of stdout is the program's JSON result.  The workloads, metrics and
their rationale are listed in BENCHMARK.json and perfbench/WORKLOADS.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "gbdt_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build the program; exit non-zero on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "gbdt_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.exit(f"perfbench: build step failed: {e}")
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int,
                    help="dataset seed (default: the analog's spec seed)")
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", BUILD]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
