#!/usr/bin/env python3
"""Build the limsynth benchmark from source and run it.

    python3 limbench/run.py --workload sram_flow --seed 1 --seconds 20 --trace 0
    python3 limbench/run.py --selftest

Run from the repository root. The first call configures and builds a
Release tree (the limsynth modules from src/ plus limbench/src/) under
$CARGO_TARGET_DIR/limbench, or .bench_build/limbench when that variable
is unset; later calls only rebuild what changed. Build output goes to
stderr, so the JSON result stays the last line of stdout.
Exits non-zero, printing no result, when the sources or the build are
missing or broken.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "limbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("limbench: no limsynth sources next to limbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "limbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("limbench: build failed: " + " ".join(cmd))


def main():
    out = build_dir()
    build(out)
    binary = os.path.join(out, "limbench")
    sys.stdout.flush()
    sys.exit(subprocess.run([binary] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
