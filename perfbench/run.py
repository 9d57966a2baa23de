#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload upc|tc|tsv|upc-planes --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the simulator library and the
benchmark driver from source (CMake, RelWithDebInfo) into the directory
named by CARGO_TARGET_DIR, default .bench_build, then runs the driver for
one workload in its own process. The driver prints its report and, as
the last stdout line, one JSON object with the metrics; see
perfbench/README.md. Build output goes to stderr.

Any extra arguments after the four above (for example --mutation NAME)
are passed to the driver unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = "pulse_perfbench"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", BINARY, "-j", jobs],
        check=True, stdout=sys.stderr)


def main(argv):
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, BINARY), *argv, "--out-dir", out_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
