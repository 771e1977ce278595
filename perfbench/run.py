#!/usr/bin/env python3
"""Build the fzbench program from this checkout's sources, then run it.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                [--tiny] [--inject-corrupt]

Run from the repository root.  The build goes to .bench_build/perfbench
(configured once, rebuilt incrementally on every call, output on stderr);
traces go to .bench_build/out.  fzbench's stdout passes through
unchanged, so its last line is the JSON result.  Exits 2 without a result
when the sources are missing or the build fails, else with fzbench's
exit code (1 when any output failed its correctness check).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def configured_for_here():
    """True when BUILD holds a CMake cache made for this source tree."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return os.path.realpath(line.split("=", 1)[1].strip()) == \
                        os.path.realpath(HERE)
    except OSError:
        pass
    return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    steps = []
    if not configured_for_here():
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "fzbench", "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    build()
    os.makedirs(OUT, exist_ok=True)
    exe = os.path.join(BUILD, "fzbench")
    return subprocess.run([exe, *sys.argv[1:], "--out-dir", OUT]).returncode


if __name__ == "__main__":
    sys.exit(main())
