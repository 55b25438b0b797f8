#!/usr/bin/env python3
"""The benchmark's own determinism test.

    python3 perfbench/determinism_test.py [--workload NAME ...] [--seed N]

Run from the repository root. For each workload it makes three traced
runs: two with the same seed and one with the next seed. Every value of
the benchmark's "determinism" line (sim_s, the ledger totals, the optimizer,
fusion, kernel and layout counters, and a fingerprint of the generated
inputs) must repeat exactly for the same seed; with the other seed the
input fingerprint must change. Exits non-zero on any violation.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (shares the build step)

# Shortest run; the benchmark still makes its minimum passes.
SECONDS = 1


def determinism_record(workload, seed):
    cmd = [os.path.join(run.BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("determinism "):
            return json.loads(line[len("determinism "):])
    raise RuntimeError(f"{' '.join(cmd)} printed no determinism line")


def check(workload, seed):
    first = determinism_record(workload, seed)
    again = determinism_record(workload, seed)
    other = determinism_record(workload, seed + 1)
    problems = []
    if sorted(first) != sorted(again):
        problems.append("the two runs report different keys")
    for key in sorted(first):
        if key in again and first[key] != again[key]:
            problems.append(f"{key}: {first[key]!r} != {again[key]!r}")
    if other.get("inputs.fingerprint") == first.get("inputs.fingerprint"):
        problems.append(f"seed {seed + 1} generated the same inputs as "
                        f"seed {seed}")
    status = "ok" if not problems else "FAIL"
    print(f"{workload}: {status} ({len(first)} values repeat for seed {seed}"
          f"; seed {seed + 1} sim_s {other.get('sim_s')!r} vs "
          f"{first.get('sim_s')!r})")
    for problem in problems:
        print(f"  {problem}")
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if not run.build():
        return 1
    results = [check(w, args.seed) for w in args.workload or run.WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
