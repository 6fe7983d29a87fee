#!/usr/bin/env python3
"""hplmxp benchmark entry point.

    python3 perfbench/run.py --serve-limit-ms <ms> --workload <name>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the C++ driver (perfbench/CMakeLists.txt, linked against the
repository's own libraries) into .bench_build/perfbench, runs one workload
from the repository root, checks that the result line names exactly the
metrics BENCHMARK.json declares, and prints that line last on stdout.
Build output and diagnostics go to stderr. Traced runs leave their Chrome
trace and per-layer ledger in .bench_out/.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hplmxp_perfbench")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "hplmxp_perfbench",
             "-j", jobs],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--serve-limit-ms", type=float, required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    command = [
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--limit-ms", str(args.serve_limit_ms),
    ]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode == 2 or not lines:
        fail(f"{args.workload} stopped with exit code {run.returncode}")
    result = json.loads(lines[-1])

    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    if args.trace == "1":
        # A layer the workload does not drive reads 0, the "should not
        # move" side of the layer map in NOTES.md.
        for name, unit in want.items():
            result["metrics"].setdefault(name, {"value": 0, "unit": unit})
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        units = sorted(n for n in want.keys() & got.keys()
                       if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}, unit mismatches {units}")
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
