#!/usr/bin/env python3
"""Compare a fresh bench metrics snapshot against a committed baseline.

Both inputs are metrics-registry JSON snapshots (the --metrics-out format:
{"counters": {...}, "gauges": {...}, "histograms": {...}}).  The tolerance
file (tools/bench_tolerances.json) names, per suite, the metrics the gate
watches and how to judge each one:

  direction "lower_better":  fail if fresh > baseline * (1 + rel_tol)
  direction "higher_better": fail if fresh < baseline * (1 - rel_tol)
  direction "equal":         fail if |fresh - baseline| > rel_tol * max(
                             |baseline|, 1e-12) — rel_tol 0 means exact
  direction "report_only":   print the delta, never fail

Wall-clock latencies are report_only by design: this gate runs on shared CI
machines, so it holds the line on *modeled* quantities (worst-wave nnz,
rejection rate, hit ratio) that are deterministic for pinned flags, and
merely narrates the noisy ones.

Every counter and gauge in the baseline must also be in the fresh
snapshot, gated or not: a key the program no longer emits is a stale
baseline entry, and the check fails until it is removed.

--degrade NAME=FACTOR multiplies the fresh value by FACTOR before judging;
the perf_regression ctest uses it to prove the gate actually fails when the
SpMV balance regresses 2x.

Exit status: 0 all gated metrics pass, 1 any failure, missing metric or
stale baseline key.

Usage:
  check_bench_regression.py --suite spmv_balance \
      --baseline bench/baselines/BENCH_spmv_balance.json \
      --fresh build/fresh.json \
      [--tolerances tools/bench_tolerances.json] \
      [--degrade spmv.wave_max_nnz=2.0]
"""

import argparse
import json
import os
import sys


def fail(msg):
    print("check_bench_regression: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def load_metrics(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: not a JSON object")
    flat = {}
    for kind in ("counters", "gauges"):
        section = doc.get(kind, {})
        if not isinstance(section, dict):
            fail(f"{path}: '{kind}' is not an object")
        flat.update(section)
    return flat


def parse_degrades(specs):
    out = {}
    for spec in specs:
        name, sep, factor = spec.partition("=")
        if not sep:
            fail(f"malformed --degrade '{spec}' (want NAME=FACTOR)")
        try:
            out[name] = float(factor)
        except ValueError:
            fail(f"malformed --degrade factor in '{spec}'")
    return out


def judge(name, rule, base, fresh):
    """Returns (ok, verdict_text)."""
    direction = rule.get("direction", "report_only")
    rel_tol = float(rule.get("rel_tol", 0.0))
    delta = fresh - base
    rel = delta / base if base != 0 else float("inf") if delta else 0.0
    desc = (f"{name}: baseline {base:g}, fresh {fresh:g} "
            f"({rel:+.1%} vs baseline)")
    if direction == "report_only":
        return True, desc + " [report only]"
    if direction == "lower_better":
        ok = fresh <= base * (1.0 + rel_tol)
        bound = f"allowed <= baseline * {1.0 + rel_tol:g}"
    elif direction == "higher_better":
        ok = fresh >= base * (1.0 - rel_tol)
        bound = f"allowed >= baseline * {1.0 - rel_tol:g}"
    elif direction == "equal":
        ok = abs(delta) <= rel_tol * max(abs(base), 1e-12)
        bound = f"allowed |delta| <= {rel_tol:g} * |baseline|"
    else:
        fail(f"{name}: unknown direction '{direction}' in tolerances")
    return ok, desc + f" [{bound}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--suite", required=True,
                    help="suite key in the tolerances file")
    ap.add_argument("--baseline", required=True,
                    help="committed baseline metrics snapshot")
    ap.add_argument("--fresh", required=True,
                    help="metrics snapshot from the fresh bench run")
    ap.add_argument("--tolerances",
                    default=os.path.join(os.path.dirname(__file__),
                                         "bench_tolerances.json"),
                    help="per-suite metric tolerance spec")
    ap.add_argument("--degrade", action="append", default=[],
                    metavar="NAME=FACTOR",
                    help="multiply the fresh metric by FACTOR before "
                         "judging (gate self-test; repeatable)")
    args = ap.parse_args()

    with open(args.tolerances, "r", encoding="utf-8") as f:
        tolerances = json.load(f)
    suites = tolerances.get("suites", {})
    if args.suite not in suites:
        fail(f"suite '{args.suite}' not in {args.tolerances} "
             f"(have: {sorted(suites)})")
    rules = suites[args.suite].get("metrics", {})
    if not rules:
        fail(f"suite '{args.suite}' has no gated metrics")

    base = load_metrics(args.baseline)
    fresh = load_metrics(args.fresh)
    stale = sorted(set(base) - set(fresh))
    if stale:
        fail(f"baseline {args.baseline} holds metrics absent from the fresh "
             f"snapshot (remove the stale keys): {', '.join(stale)}")
    degrades = parse_degrades(args.degrade)
    unknown = set(degrades) - set(rules)
    if unknown:
        fail(f"--degrade names not gated by suite '{args.suite}': "
             f"{sorted(unknown)}")

    failures = []
    for name, rule in sorted(rules.items()):
        if name not in base:
            fail(f"metric '{name}' absent from baseline {args.baseline}")
        if name not in fresh:
            fail(f"metric '{name}' absent from fresh snapshot {args.fresh}")
        value = float(fresh[name])
        if name in degrades:
            value *= degrades[name]
            print(f"check_bench_regression: degrading {name} by "
                  f"{degrades[name]:g}x for the self-test")
        ok, verdict = judge(name, rule, float(base[name]), value)
        print(("  ok   " if ok else "  FAIL ") + verdict)
        if not ok:
            failures.append(name)

    if failures:
        fail(f"suite '{args.suite}': {len(failures)} metric(s) regressed: "
             f"{', '.join(failures)}")
    print(f"check_bench_regression: OK — suite '{args.suite}', "
          f"{len(rules)} metrics within tolerance")
    sys.exit(0)


if __name__ == "__main__":
    main()
