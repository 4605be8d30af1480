#!/usr/bin/env python3
"""Build and run the wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny]

Run from the repository root. The first call configures and builds the
library sources under src/ together with the benchmark driver into
$CARGO_TARGET_DIR (default .bench_build); later calls only rebuild what
changed. The driver's last stdout line is the JSON result; build output goes
to stderr. Exits nonzero, without a result line, when the sources are
missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "strategy_driver.h")):
        sys.stderr.write("run.py: library sources (src/) not found next to "
                         "perfbench/; nothing to benchmark\n")
        return None
    binary = os.path.join(build_dir, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return None
    return binary


def main():
    root_build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(root_build), "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 2
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    done = subprocess.run([binary, *sys.argv[1:], "--out-dir", out_dir])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
