#!/usr/bin/env python3
"""Runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the system and the benchmark from source into .bench_build (CMake,
Release), then runs one workload with bin/perfbench. With --trace 0 it
prints the end-to-end metrics, with --trace 1 the per-layer metrics, each
by name with its unit; the last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs every
workload in turn and ends with one combined JSON line whose metric names are
prefixed with the workload. Build output goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("local_small", "process_cold", "remote_mixed")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "runtime", "platform.h")):
        sys.exit("perfbench: no system sources under ./src; run from the root of a checkout")
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, workload, seed, seconds, trace):
    proc = subprocess.run([binary, "run", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} failed (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build(os.getcwd())
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit(f"perfbench: build failed: {error}")

    if args.workload != "all":
        result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"== {workload}")
        result = run_workload(binary, workload, args.seed, args.seconds, args.trace)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
