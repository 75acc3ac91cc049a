#!/usr/bin/env python3
"""Build and run the memif benchmark for one workload.

Run from the repository root:

    python3 memifbench/run.py --workload mig-small --seed 1 --seconds 10 --trace 0

The first call configures and builds the simulator and the memifbench
binary into .bench_build/ (Release); later calls rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the binary's
JSON result. With --trace 1 the spans of one traced round are written to
.bench_build/traces/<workload>-seed<seed>.jsonl.

Exit status: the binary's (0 when every output check passed), 1 when the
build fails or the binary times out, 2 on bad arguments.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "memifbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the binary; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.relpath(BENCH_DIR), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "memifbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"memifbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            print(f"memifbench: {' '.join(cmd)} failed "
                  f"({proc.returncode})", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        return 1
    cmd = [os.path.join(BUILD_DIR, "memifbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir,
                             f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"memifbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
