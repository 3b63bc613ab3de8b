#!/usr/bin/env python3
"""Builds and runs the pob performance benchmark.

    python3 perfbench/run.py --workload coop_random --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. It configures and builds the benchmark
package (perfbench/CMakeLists.txt, which compiles the library from src/) in
Release under .bench_build/, runs the benchmark's self-test, then runs the
workload. The last line of standard output is the JSON result and the line
before it the host and build context; build logs, per-run results and checks
go to standard error. Traced runs write their
spans to .bench_out/<workload>.spans.csv.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds incrementally; output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "pob_perfbench", "pob_perfbench_selftest"],
        stdout=sys.stderr, check=True)


def wait_for_group_exit(pgid, limit_s=10.0):
    """Waits until no process of the group is left, for at most limit_s."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_benchmark(args):
    """Runs pob_perfbench in its own process group, so that a timeout also
    stops the processes it forks; returns its exit code and standard output."""
    cmd = [str(BUILD / "pob_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        wait_for_group_exit(proc.pid)
        raise
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        subprocess.run([str(BUILD / "pob_perfbench_selftest")], stdout=sys.stderr,
                       check=True, timeout=RUN_TIMEOUT_S)
        code, stdout = run_benchmark(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        log(f"perfbench: {err}")
        return 1

    # A failed run prints its result line without metrics and exits with 1;
    # pass both on.
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if code != 0:
        log(f"perfbench: pob_perfbench exited with code {code}")
        return 1
    lines = stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: the benchmark printed no result")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
