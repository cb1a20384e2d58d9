#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
sfly library and the perfbench program from source into .bench_build/
(CMake, Release); later calls only re-check the build.  Build output goes
to stderr, so the program's report - whose last line is the JSON result -
is all that reaches stdout.  Any extra flags (--scale tiny)
pass through to perfbench; see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_JOBS = "4"


def build():
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("run.py: cmake not found")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            [cmake, "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        [cmake, "--build", BUILD, "--target", "perfbench", "-j", BUILD_JOBS],
        stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"run.py: build failed ({e})")
    env = dict(os.environ)
    # OpenMP regions (artifact builds, distance_stats) run serially: a
    # workload then uses only its own threads, at most four, and no build
    # synchronises across vCPUs, which on a shared VM is slow and unsteady
    # whenever the host is busy.
    env["OMP_NUM_THREADS"] = "1"
    args = [BINARY, *sys.argv[1:], "--work-dir", os.path.join(BUILD, "work")]
    sys.exit(subprocess.run(args, env=env, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
