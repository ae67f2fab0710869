#!/usr/bin/env python3
"""npral-bench entry point.

    python3 npral-bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (and the repository's libraries, from ../src) into
.bench_build/ with CMake, runs one workload in-process, and prints the
binary's notes followed by one JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics are exactly BENCHMARK.json's end_to_end set (--trace 0) or its
per_layer set (--trace 1), each with the unit declared there. A per-layer
metric the workload does not exercise reads 0. Any mismatch between what
the binary measured and what BENCHMARK.json declares is an error, so the
two cannot drift apart. Build output goes to stderr. Exits non-zero
without a result when the build, the run or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "npral-bench")
WORKLOADS = ("batch_corpus", "fuzz_adversarial", "serve_mixed", "grid_table3")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"npral-bench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, what):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"{what} failed (exit {proc.returncode})")


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], "build")
    binary = os.path.join(BUILD_DIR, "npral_bench")
    if not os.path.exists(binary):
        fail("build produced no npral_bench binary")
    return binary


def declared_metrics():
    """BENCHMARK.json's (end_to_end, per_layer) metrics as name -> unit."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    binary = build()
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.relpath(os.path.dirname(BUILD_DIR), ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"npral_bench exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("npral_bench printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("npral_bench's last line is not JSON")

    measured = result["metrics"]
    extra = sorted(set(measured) - set(end_to_end) - set(per_layer))
    if extra:
        fail(f"metrics not declared in BENCHMARK.json: {', '.join(extra)}")
    metrics = {}
    for name, unit in declared.items():
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name}: unit {measured[name]['unit']} but BENCHMARK.json "
                     f"declares {unit}")
            metrics[name] = measured[name]
        elif args.trace:
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not measured")

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
