#!/usr/bin/env python3
"""End-to-end placement-cost benchmark driver.

Builds the benchmark (perfbench/CMakeLists.txt: the library sources under
src/ plus e2e_bench.cc, Release) into .bench_build/perfbench at the
repository root, runs one workload, and re-emits the benchmark's output.
The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
provenance of the run (host CPU, nproc, build type, commit, seed). The full
result with its provenance is also written under .bench_build/results/.

Usage:
  python3 perfbench/run.py --workload served-soak|method-sweep|stream-replay
                           --seed N --seconds S --trace 0|1 [--tiny]
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "Release"
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
WORKLOADS = ("served-soak", "method-sweep", "stream-replay")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "streaming.h")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the benchmarked sources; names the code when git can't."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not for measurements)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    provenance = {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": BUILD_TYPE,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump({"provenance": provenance, "result": result,
                   "log": lines[:-1]}, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
