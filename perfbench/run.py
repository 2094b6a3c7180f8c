#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload contended --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (and the library sources it compiles) into .bench_build/ as a
RelWithDebInfo build, the repository's own default; later calls only
re-check the build. Every flag is passed through to the perfbench binary,
whose last stdout line is the result JSON. Build output goes to stderr.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", JOBS,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed: {e}")
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
