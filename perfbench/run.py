#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The program is built with dune in the
release profile (with the shared dune cache off, so nothing is written
outside the checkout), then run with the arguments given here. Build
output goes to standard error; the last line of standard output is the
benchmark's JSON result. The exit code is the benchmark's: 0 when every
correctness check passed, non-zero otherwise or when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "alfbench.exe")
RUN_TIMEOUT_S = 170


def build() -> bool:
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--cache", "disabled", "./perfbench/alfbench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.exists(EXE)


def main() -> int:
    if not build():
        print("alfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("alfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
