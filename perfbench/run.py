#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-nmnist --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Every run first builds the benchmark (a Release CMake build of perfbench/,
which compiles the library from src/) into .bench_build/perfbench, and, the
first time, runs the untimed prepare step that trains the zoo models into
.bench_build/cache. The benchmark binary then runs one workload; its last
line of stdout is the result object. Build and prepare output goes to
stderr. Nothing is read or written outside the checkout.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE_DIR = os.path.join(ROOT, ".bench_build", "cache")
# One run must end within 180 s; the prepare step and the build are exempt.
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, target)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="paper-nmnist")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-test instead")
    args = parser.parse_args()

    try:
        if args.selftest:
            binary = build("perfbench_selftest")
            return subprocess.run([binary], cwd=BUILD_DIR).returncode
        binary = build("perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    if not os.path.exists(os.path.join(CACHE_DIR, "manifest.json")):
        prepare = subprocess.run([binary, "--prepare", "1", "--cache-dir", CACHE_DIR],
                                 stdout=sys.stderr)
        if prepare.returncode != 0:
            print("run.py: prepare step failed", file=sys.stderr)
            return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", CACHE_DIR,
           "--git-commit", git_commit()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
