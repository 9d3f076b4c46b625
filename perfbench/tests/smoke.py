#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny scale.

    python3 perfbench/tests/smoke.py

Builds the benchmark, runs the checker self-test (a corrupted label vector
must count as a failed op), then runs every workload of BENCHMARK.json for a
second at a tiny scale, untraced and traced, and asserts that each run
passes its checks and prints every end-to-end or per-layer metric by name
with the unit BENCHMARK.json gives it.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SCALE = "0.05"


def check_run(spec, workload, trace):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--scale", SCALE]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: {proc.stdout}"
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, where
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {m['name']}"
        printed = [l for l in lines if l.split()[:2] == ["metric", m["name"]]]
        assert printed and printed[0].split()[3] == m["unit"], \
            f"{where}: no '{m['name']}' line with unit {m['unit']}"
    if not trace:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0, \
                f"{where}: end-to-end metric {m['name']} is 0"
    assert any(l.startswith("op ") and "labels=" in l for l in lines), \
        f"{where}: no per-op label hash"
    print(f"ok  {where}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = run.build(("perfbench", "perfbench_checks_test"))
    test = subprocess.run([str(build_dir / "perfbench_checks_test")],
                          timeout=120)
    assert test.returncode == 0, "checker self-test failed"
    print("ok  checker self-test")
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)


if __name__ == "__main__":
    main()
