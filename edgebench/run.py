#!/usr/bin/env python3
"""Build and run the edgesim benchmark.

Run from the repository root:

    python3 edgebench/run.py --workload dsre-waves --seed 1 --seconds 45 --trace 0

The first call configures and builds edgebench/ (CMake, Release) into
.bench_build/; later calls only rebuild what changed. The edgebench binary
then runs one workload; the last line of standard output is the JSON
result object. Build output goes to standard error. Every argument is
passed through to the binary (see edgebench/README.md), which also
checks its simulated results against edgebench/digests.txt.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "edgebench")


def configured_for_this_tree(cache):
    """Does the CMake cache belong to this source tree?"""
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip() == HERE
    except OSError:
        pass
    return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("edgebench: no simulator sources at %s/src" % ROOT)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", "edgebench"]]
    if not configured_for_this_tree(cache):
        if os.path.exists(cache):
            os.remove(cache)
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("edgebench: build step failed: %s" % " ".join(step))


def main():
    build()
    # A child process rather than exec: the benchmark's peak_rss_mb reads
    # its children's usage, which must not include the compiler's.
    args = [BINARY] + sys.argv[1:] + [
        "--out-dir", os.path.join(BUILD, "edgebench-run"),
        "--digests", os.path.join(HERE, "digests.txt")]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
