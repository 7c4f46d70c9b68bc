#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload at --tiny size, untraced and traced, with the output
checks on, and asserts:
  * every run reports correct=true and zero failed cells;
  * each run prints every metric BENCHMARK.json names for its mode;
  * two runs with the same seed give identical simulated outputs (the
    sim_digest line, a hash over every cell's SimResult), and the traced
    run's digest equals the untraced one.

Usage: python3 perfbench/smoke_test.py   (exit 0 = pass)
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "7"
# BENCHMARK.json lists served-soak and method-sweep; stream-replay stays
# runnable by hand (README.md) and is smoke-tested too.
WORKLOADS = ("served-soak", "method-sweep", "stream-replay")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", SEED, "--seconds", "0", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}")
    lines = proc.stdout.splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest"))
    return json.loads(lines[-1]), digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for workload in WORKLOADS:
        digests = []
        for trace in (0, 0, 1):
            result, digest = run(workload, trace)
            digests.append(digest)
            label = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: checks failed: {result}")
            if result["attempted"] < 1:
                failures.append(f"{label}: nothing attempted")
            if set(result["metrics"]) != expected[trace]:
                failures.append(f"{label}: metric names "
                                f"{sorted(result['metrics'])}")
        if len(set(digests)) != 1:
            failures.append(f"{workload}: SimResult digests differ across "
                            f"same-seed runs: {digests}")
        print(f"{workload}: digest {digests[0]}")
    for f in failures:
        print("FAIL " + f)
    print("smoke test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
