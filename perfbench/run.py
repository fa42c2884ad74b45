#!/usr/bin/env python3
"""Builds the benchmark from the repository's sources and runs one workload.

    python3 perfbench/run.py --workload ucr_archive|long_period|fleet_stream \
        --seed N --seconds S --trace 0|1 [--small 1]

Run from any directory of a checkout. The build goes to .bench_build/ at the
checkout's root (CMake, Release) and is brought up to date by every run;
build output goes to stderr. The last line of stdout is the run's JSON result. Exits
non-zero without a result when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")


def build():
    """Configures and builds the benchmark; True on success."""
    for step in (["cmake", "-S", HERE, "-B", CMAKE_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                  "-j", "4"]):
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [BINARY] + sys.argv[1:] + ["--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    out = proc.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0 or not out.strip():
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
