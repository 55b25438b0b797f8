#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload paper-sparse|paper-dense|serve-zipf \
        --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles the library from src/) into .bench_build/perfbench, then runs the
benchmark binary and passes its output through; the last stdout line is
the result JSON {"correct", "attempted", "failed", "metrics"}. A traced run also
writes its spans to .bench_build/traces/. Exits non-zero without printing
a result when the build fails, and non-zero when any output is wrong.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-sparse", "paper-dense", "serve-zipf")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; kills the whole group on timeout.

    Returns the exit code, or None on timeout.
    """
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    return proc.returncode


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        code = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except (json.JSONDecodeError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(out)
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
