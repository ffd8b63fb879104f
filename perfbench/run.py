#!/usr/bin/env python3
"""Build and run the shard benchmark.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
checkout's src/) into .bench_build/perfbench; later calls rebuild only what
changed. Build output goes to stderr. The benchmark prints its notes and, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 1 the Chrome trace of the run is written to
.bench_build/traces/<workload>-<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
JOBS = str(min(4, os.cpu_count() or 1))
# A run measures --seconds plus a few seconds of set-up and checks; this
# bounds a hung benchmark well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def build(target):
    """Configures and builds `target`; returns the executable path."""
    configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", JOBS],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["crowd", "horde", "churn"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        exe = build("shard_bench_selftest" if args.selftest else "shard_bench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        cmd = [exe]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=BUILD, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
