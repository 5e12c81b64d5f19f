#!/usr/bin/env python3
"""Build and run the host-speed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds perfbench/main.exe
from source with dune (into .bench_build/, outside the repository's own
_build/) and runs it with the given arguments; the last line of standard
output is the JSON result. Build output goes to standard error. Every
file the benchmark writes is under .bench_build/.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "dune")
WORK = os.path.join(".bench_build", "perfbench")


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def main():
    os.makedirs(os.path.dirname(BUILD), exist_ok=True)
    build = subprocess.run(
        dune() + ["build", "--root", ".", "--build-dir", BUILD,
                  "--profile", "release", "--cache", "disabled",
                  "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(BUILD, "default", "perfbench", "main.exe")
    bench = subprocess.run([exe, "--work", WORK] + sys.argv[1:], cwd=ROOT)
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
