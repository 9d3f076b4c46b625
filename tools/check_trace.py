#!/usr/bin/env python3
"""Validate a fastsc Chrome trace-event / Perfetto JSON trace.

Checks, in order:
  1. Schema: top-level object with a "traceEvents" list; every event has
     name/ph/ts/pid/tid; 'X' (complete) events carry a non-negative dur.
  2. Track discipline: on wall-clock tracks (pid 1, one tid per thread)
     spans must be properly nested or disjoint.
  3. Serial devices: on the virtual timeline (pid 2) device i owns link
     tid 2i+1 and compute tid 2i+2 (a single device keeps tids 1 and 2).
     A device runs one operation at a time, so each device's link and
     compute spans, merged, must be pairwise disjoint; any overlap means
     the emitter or the device runtime is broken.
  4. Counter series: every fault.* / degrade.* / service.* / cache.* /
     d2d.* counter ('C') sample is numeric, non-negative, and
     non-decreasing by timestamp — the emitters publish cumulative registry
     values, so a dip means double-reset.
  5. Optional presence check (--expect-counter NAME, repeatable): fail if
     the trace carries no counter samples with that name.  The form
     "NAME>=MIN" additionally requires the final sampled value to reach
     MIN (sdc_smoke asserts sdc.detected>=1 this way).
  6. Optional gauge-ratio assertion (--expect-gauge-ratio "NUM/DEN>=MIN",
     repeatable, requires --metrics): fail unless both gauges exist in the
     metrics snapshot and NUM / DEN >= MIN.  This is how perf_smoke asserts
     the merge-path balance win from artifacts alone:
     spmv.rowchunk_wave_max_nnz / spmv.wave_max_nnz >= 2.
  7. Optional gauge-bound assertion (--expect-gauge "NAME>=MIN" or
     "NAME<=MAX", repeatable, requires --metrics): fail unless the gauge
     exists in the metrics snapshot and satisfies the bound.  service_smoke
     uses this for service.warm_vs_cold_ari >= 1.
  8. Optional run-report attribution check (--report report.json): the
     report's "attribution" section must use disciplined site names
     (dotted lowercase identifiers, no "unattributed" bucket), carry only
     non-negative counters, have nonzero flops on every site that launched
     a kernel, keep roofline utilization in (0, 1], and its per-site sums
     must reproduce the device-counter totals — byte/launch/transfer
     counts exactly, seconds within --seconds-tolerance.  The trace
     argument is optional when --report is given.

Exit status 0 on success; 1 with a message on the first failure.

Usage:
  check_trace.py trace.json [--metrics metrics.json]
                 [--expect-counter fault.transfer_retry]
                 [--expect-gauge-ratio "a.max/b.max>=2"]
                 [--expect-gauge "service.warm_vs_cold_ari>=1"]
                 [--report report.json] [--seconds-tolerance 1e-6]
"""

import argparse
import json
import re
import sys

WALL_PID = 1
VIRTUAL_PID = 2


def fail(msg):
    print("check_trace: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def load_events(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail("top level is not a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail('missing "traceEvents" list')
    return events


def check_schema(events):
    phases = {}
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(f"event #{i} is not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in e:
                fail(f"event #{i} ({e.get('name', '?')}) missing '{field}'")
        ph = e["ph"]
        phases[ph] = phases.get(ph, 0) + 1
        if ph != "M":  # metadata records carry no timestamp
            if not isinstance(e.get("ts"), (int, float)):
                fail(f"event #{i} ({e['name']}) has non-numeric ts")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)):
                fail(f"event #{i} ({e['name']}) 'X' without numeric dur")
            if dur < 0:
                fail(f"event #{i} ({e['name']}) negative dur {dur}")
    if phases.get("X", 0) == 0:
        fail("trace contains no complete ('X') events")
    return phases


def spans_by_track(events):
    tracks = {}
    for e in events:
        if e["ph"] != "X":
            continue
        key = (e["pid"], e["tid"])
        tracks.setdefault(key, []).append(
            (float(e["ts"]), float(e["ts"]) + float(e["dur"]), e["name"]))
    for spans in tracks.values():
        # Enclosing span first when begins tie, so the nesting check sees
        # the parent before its children.
        spans.sort(key=lambda s: (s[0], -s[1]))
    return tracks


EPS_US = 1e-6  # one trace tick (traces are in microseconds)


def check_track_discipline(tracks):
    for (pid, tid), spans in tracks.items():
        if pid == VIRTUAL_PID:
            continue  # check_serial_devices
        # Wall-clock thread: nested-or-disjoint (a stage span contains its
        # inner spmv spans).  Sorted by (begin, end); maintain a stack of
        # open enclosing spans.
        stack = []
        for b, e, n in spans:
            while stack and stack[-1][1] <= b + EPS_US:
                stack.pop()
            if stack and e > stack[-1][1] + EPS_US:
                pb, pe, pn = stack[-1]
                fail(f"wall track {pid}:{tid}: '{n}' [{b:.3f},{e:.3f}) "
                     f"straddles '{pn}' [{pb:.3f},{pe:.3f}) — neither "
                     f"nested nor disjoint")
            stack.append((b, e, n))


def check_serial_devices(tracks):
    """Merge each device's link (tid 2i+1) and compute (tid 2i+2) spans and
    require them pairwise disjoint.  Returns the number of devices seen."""
    devices = {}
    for (pid, tid), spans in tracks.items():
        if pid == VIRTUAL_PID:
            devices.setdefault((tid - 1) // 2, []).extend(
                (b, e, n, tid) for b, e, n in spans)
    for dev, spans in sorted(devices.items()):
        spans.sort(key=lambda s: (s[0], s[1]))
        for (b0, e0, n0, t0), (b1, e1, n1, t1) in zip(spans, spans[1:]):
            if b1 < e0 - EPS_US:
                fail(f"device {dev}: '{n1}' [{b1:.3f},{e1:.3f}) on tid {t1} "
                     f"overlaps '{n0}' [{b0:.3f},{e0:.3f}) on tid {t0}; a "
                     f"device runs one operation at a time")
    return len(devices)


def check_monotonic(tracks):
    # After sorting, begins are non-decreasing by construction; assert the
    # raw timestamps are sane (no NaN snuck through as sort garbage).
    for (pid, tid), spans in tracks.items():
        for b, e, n in spans:
            if not (e >= b):  # also catches NaN
                fail(f"track {pid}:{tid}: span '{n}' has end {e} < begin {b}")


def counter_series(events):
    """Group 'C' samples by (pid, name) -> [(ts, value)] sorted by ts."""
    series = {}
    for i, e in enumerate(events):
        if e["ph"] != "C":
            continue
        args = e.get("args")
        if not isinstance(args, dict) or not isinstance(
                args.get("value"), (int, float)):
            fail(f"counter event #{i} ('{e['name']}') has no numeric "
                 f"args.value")
        series.setdefault((e["pid"], e["name"]), []).append(
            (float(e["ts"]), float(args["value"])))
    for samples in series.values():
        samples.sort(key=lambda s: s[0])
    return series


CUMULATIVE_PREFIXES = ("fault.", "degrade.", "budget.", "cancel.",
                       "service.", "cache.", "d2d.", "sdc.")


def check_counter_series(series):
    """fault./degrade./budget./cancel./service./cache./d2d./sdc. counters
    mirror cumulative registry values, so each series must be non-negative
    and non-decreasing in time."""
    checked = 0
    for (pid, name), samples in series.items():
        if not name.startswith(CUMULATIVE_PREFIXES):
            continue
        checked += 1
        prev = None
        for ts, v in samples:
            if v < 0:
                fail(f"counter '{name}' (pid {pid}) negative value {v} "
                     f"at ts {ts:.3f}")
            if prev is not None and v < prev:
                fail(f"counter '{name}' (pid {pid}) decreases {prev} -> {v} "
                     f"at ts {ts:.3f}; cumulative series must be monotone")
            prev = v
    return checked


def check_expected_counters(series, names):
    """Bare NAME asserts presence; 'NAME>=MIN' additionally requires the
    series' final (= cumulative max, for monotone counters) value to reach
    MIN — e.g. the sdc_smoke gate's 'sdc.detected>=1'."""
    present = {name for (_, name) in series}
    for spec in names:
        name, minimum = spec, None
        if ">=" in spec:
            name, bound = spec.split(">=", 1)
            name = name.strip()
            try:
                minimum = float(bound)
            except ValueError:
                fail(f"--expect-counter '{spec}': bound '{bound}' is not "
                     f"a number")
        if name not in present:
            fail(f"expected counter '{name}' absent from trace "
                 f"(present: {sorted(present) or ['<none>']})")
        if minimum is None:
            continue
        final = max(samples[-1][1]
                    for (_, n), samples in series.items()
                    if n == name and samples)
        if final < minimum:
            fail(f"counter '{name}' final value {final} < required "
                 f"{minimum}")


def check_gauge_ratios(metrics_path, specs):
    """Assert NUM/DEN >= MIN over gauges in the metrics snapshot."""
    if not specs:
        return
    if not metrics_path:
        fail("--expect-gauge-ratio requires --metrics")
    with open(metrics_path, "r", encoding="utf-8") as f:
        gauges = json.load(f).get("gauges", {})
    for spec in specs:
        m = re.fullmatch(r"\s*([^/\s]+)\s*/\s*([^>\s]+)\s*>=\s*(\S+)\s*", spec)
        if m is None:
            fail(f"malformed --expect-gauge-ratio '{spec}' "
                 f"(want NUM/DEN>=MIN)")
        num_name, den_name, want = m.group(1), m.group(2), float(m.group(3))
        for name in (num_name, den_name):
            if name not in gauges:
                fail(f"gauge '{name}' absent from {metrics_path} "
                     f"(present: {sorted(gauges) or ['<none>']})")
        den = float(gauges[den_name])
        if den == 0:
            fail(f"gauge '{den_name}' is 0; ratio '{spec}' undefined")
        ratio = float(gauges[num_name]) / den
        if ratio < want:
            fail(f"gauge ratio {num_name}/{den_name} = {ratio:.3f} "
                 f"below required {want:g}")
        print(f"check_trace: gauge ratio OK — {num_name}/{den_name} = "
              f"{ratio:.3f} >= {want:g}")


def check_gauges(metrics_path, specs):
    """Assert NAME >= MIN (or NAME <= MAX) over gauges in the snapshot."""
    if not specs:
        return
    if not metrics_path:
        fail("--expect-gauge requires --metrics")
    with open(metrics_path, "r", encoding="utf-8") as f:
        gauges = json.load(f).get("gauges", {})
    for spec in specs:
        m = re.fullmatch(r"\s*([^<>=\s]+)\s*(>=|<=)\s*(\S+)\s*", spec)
        if m is None:
            fail(f"malformed --expect-gauge '{spec}' "
                 f"(want NAME>=MIN or NAME<=MAX)")
        name, op, bound = m.group(1), m.group(2), float(m.group(3))
        if name not in gauges:
            fail(f"gauge '{name}' absent from {metrics_path} "
                 f"(present: {sorted(gauges) or ['<none>']})")
        value = float(gauges[name])
        ok = value >= bound if op == ">=" else value <= bound
        if not ok:
            fail(f"gauge {name} = {value:g} violates '{spec}'")
        print(f"check_trace: gauge OK — {name} = {value:g} {op} {bound:g}")


SITE_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

COUNT_FIELDS = ("kernel_launches", "transfers_h2d", "transfers_d2h",
                "transfers_d2d", "bytes_h2d", "bytes_d2h", "bytes_d2d")
MODEL_FIELDS = ("flops", "bytes_read", "bytes_written", "kernel_seconds",
                "transfer_seconds")


def check_report_attribution(report_path, seconds_tol):
    """Validate the run report's attribution section (check #9)."""
    with open(report_path, "r", encoding="utf-8") as f:
        report = json.load(f)
    attr = report.get("attribution")
    if not isinstance(attr, dict):
        fail(f"{report_path} has no 'attribution' section")
    sites = attr.get("sites")
    if not isinstance(sites, list) or not sites:
        fail(f"{report_path}: attribution.sites missing or empty")
    roofline = attr.get("roofline", {})
    for key in ("peak_flops", "bandwidth_bytes_per_sec"):
        if not (isinstance(roofline.get(key), (int, float))
                and roofline[key] > 0):
            fail(f"{report_path}: attribution.roofline.{key} missing or "
                 f"non-positive")

    sums = {k: 0 for k in COUNT_FIELDS}
    sums.update({k: 0.0 for k in MODEL_FIELDS})
    for s in sites:
        name = s.get("site", "")
        if not SITE_RE.fullmatch(name):
            fail(f"{report_path}: site name '{name}' violates the dotted "
                 f"lowercase-identifier convention")
        if name == "unattributed":
            fail(f"{report_path}: 'unattributed' bucket present — some "
                 f"launch or transfer is missing a site tag")
        for field in COUNT_FIELDS + MODEL_FIELDS:
            v = s.get(field)
            if not isinstance(v, (int, float)) or v < 0:
                fail(f"{report_path}: site '{name}' field '{field}' "
                     f"missing or negative ({v!r})")
            sums[field] += v
        if s["kernel_launches"] > 0 and s["flops"] <= 0:
            fail(f"{report_path}: site '{name}' launched "
                 f"{s['kernel_launches']} kernels but modeled 0 flops")
        util = s.get("roofline_utilization")
        if not isinstance(util, (int, float)):
            fail(f"{report_path}: site '{name}' missing "
                 f"roofline_utilization")
        has_work = s["kernel_seconds"] + s["transfer_seconds"] > 0
        if has_work and not 0 < util <= 1:
            fail(f"{report_path}: site '{name}' roofline_utilization "
                 f"{util!r} outside (0, 1]")

    dc = attr.get("device_counters")
    if not isinstance(dc, dict):
        fail(f"{report_path}: attribution.device_counters missing")
    exact = (("kernel_launches", "kernel_launches"),
             ("bytes_h2d", "bytes_h2d"), ("bytes_d2h", "bytes_d2h"),
             ("bytes_d2d", "bytes_d2d"),
             ("transfers_h2d", "transfers_h2d"),
             ("transfers_d2h", "transfers_d2h"),
             ("transfers_d2d", "transfers_d2d"))
    for site_field, dc_field in exact:
        if sums[site_field] != dc.get(dc_field):
            fail(f"{report_path}: per-site {site_field} sums to "
                 f"{sums[site_field]} but device counters say "
                 f"{dc.get(dc_field)!r}")
    near = (("kernel_seconds", "kernel_seconds"),
            ("transfer_seconds", "modeled_transfer_seconds"))
    for site_field, dc_field in near:
        want = dc.get(dc_field, 0.0)
        if abs(sums[site_field] - want) > seconds_tol:
            fail(f"{report_path}: per-site {site_field} sums to "
                 f"{sums[site_field]!r} but device counters say {want!r} "
                 f"(|diff| > {seconds_tol:g})")
    print(f"check_trace: attribution OK — {len(sites)} sites, "
          f"{sums['kernel_launches']} launches, seconds sums match device "
          f"counters within {seconds_tol:g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", nargs="?",
                    help="trace JSON written with --trace-out (optional "
                         "when only --report is being validated)")
    ap.add_argument("--metrics",
                    help="metrics JSON written with --metrics-out, for the "
                         "--expect-gauge* checks")
    ap.add_argument("--expect-counter", action="append", default=[],
                    metavar="NAME[>=MIN]",
                    help="fail unless a counter series with this name is "
                         "present (repeatable); with >=MIN also require "
                         "its final value to reach MIN")
    ap.add_argument("--expect-gauge-ratio", action="append", default=[],
                    metavar="NUM/DEN>=MIN",
                    help="fail unless metrics gauges NUM and DEN exist and "
                         "NUM/DEN >= MIN (repeatable; requires --metrics)")
    ap.add_argument("--expect-gauge", action="append", default=[],
                    metavar="NAME>=MIN",
                    help="fail unless the metrics gauge exists and satisfies "
                         "the bound; NAME>=MIN or NAME<=MAX (repeatable; "
                         "requires --metrics)")
    ap.add_argument("--report", metavar="REPORT.json",
                    help="run-report JSON (--report-out); validate its "
                         "attribution section against the device counters")
    ap.add_argument("--seconds-tolerance", type=float, default=1e-6,
                    help="absolute tolerance for the attribution seconds "
                         "sums (default 1e-6)")
    args = ap.parse_args()

    if args.report:
        check_report_attribution(args.report, args.seconds_tolerance)
    if args.trace is None:
        if not args.report:
            ap.error("a trace argument or --report is required")
        sys.exit(0)

    events = load_events(args.trace)
    phases = check_schema(events)
    tracks = spans_by_track(events)
    check_monotonic(tracks)
    check_track_discipline(tracks)
    devices = check_serial_devices(tracks)
    series = counter_series(events)
    fault_series = check_counter_series(series)
    check_expected_counters(series, args.expect_counter)
    check_gauge_ratios(args.metrics, args.expect_gauge_ratio)
    check_gauges(args.metrics, args.expect_gauge)
    n_spans = sum(len(s) for s in tracks.values())
    print(f"check_trace: OK — {len(events)} events "
          f"({phases.get('X', 0)} spans on {len(tracks)} tracks, "
          f"{phases.get('C', 0)} counter samples in {len(series)} series "
          f"of which {fault_series} fault/degrade, "
          f"{phases.get('M', 0)} metadata records); "
          f"{n_spans} spans well-formed, {devices} device timeline(s) "
          f"serial")
    sys.exit(0)


if __name__ == "__main__":
    main()
