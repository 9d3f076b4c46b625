#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload dti|powerlaw|service --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/perfbench;
later runs only rebuild what changed.  Build output goes to stderr.

With --trace 0 the benchmark sets up twice more, each time in a fresh
process, so setup_s is the median of three cold set-ups.  The last line of
stdout is the result object: {"correct", "attempted", "failed", "metrics"}.
Without a repository around it (no src/), the script exits with an error and
prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 3  # this run's own set-up plus two fresh processes
CHILD_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(targets=("perfbench",)):
    """Configure (once) and build; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no fastsc sources at {ROOT / 'src'}; run from a repository checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        cfg = subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    built = subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets],
        stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        fail("build failed")
    return BUILD_DIR


def run_child(argv):
    """Runs the benchmark binary; returns (stdout lines, parsed last line)."""
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(argv)} timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(argv)} exited with {proc.returncode}")
    try:
        return lines, json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{' '.join(argv)} printed no result line")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["dti", "powerlaw", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every input (self-tests only)")
    args = ap.parse_args()

    binary = build() / "perfbench"
    base = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--scale", str(args.scale)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            _, res = run_child(base + ["--trace", "0", "--phase", "setup"])
            setups.append(res)

    run_argv = base + ["--trace", str(args.trace)]
    if args.trace:
        trace_path = BUILD_DIR / f"trace-{args.workload}-{args.seed}.json"
        run_argv += ["--trace-out", str(trace_path)]
    lines, result = run_child(run_argv)
    for line in lines[:-1]:
        print(line)

    if setups:
        samples = [s["setup_s"] for s in setups]
        samples.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        result["attempted"] += sum(s["attempted"] for s in setups)
        result["failed"] += sum(s["failed"] for s in setups)
        result["correct"] = result["correct"] and result["failed"] == 0
        print("setup_s samples " + " ".join(f"{s:.6f}" for s in samples)
              + " (median reported)")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
