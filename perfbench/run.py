#!/usr/bin/env python3
"""Builds and runs the Skeena end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
Skeena libraries and the benchmark into .bench_build/perfbench (Release);
later calls rebuild incrementally. Build output goes to stderr; the last
line of stdout is the workload's JSON result. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ["wire-cross-rw", "tpcc-new-order-opt", "wal-disk-recover",
             "repl-follow"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {' '.join(cmd)}: {e}", file=sys.stderr)
        return False


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no Skeena sources next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", BUILD, "--target", target,
                       "-j", jobs], BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_selftest")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if not build("perfbench"):
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"perfbench: peak RSS {peak_mb:.0f} MB", file=sys.stderr)
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run exited with {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
