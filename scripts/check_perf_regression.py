#!/usr/bin/env python3
"""Fail when a benchmark regresses against its checked-in baseline.

Compares every point in a fresh BENCH_*.json against its baseline
(bench/baseline_kernel_throughput.json, bench/baseline_admission.json),
keyed by (section, name, policy).  Two gated quantities per point:

  events_per_sec   higher is better; a point regresses when it runs at
                   less than (1 - tolerance) of its baseline rate.
  latency_p99_us   lower is better; gated only when BOTH files carry the
                   field for the point (kernel points don't — the check
                   stays backward compatible).  A point regresses when
                   its p99 grows past (1 + latency-tolerance) of
                   baseline.

The default tolerances of 25% absorb runner-to-runner hardware variance
(see docs/PERFORMANCE.md for the rationale and for how to refresh a
baseline after an intentional change).

A section listed via --require-section must contribute at least one
point to BOTH files; otherwise the check fails.  This keeps a bench
section honest: if it silently stops emitting points (or the baseline
was refreshed without it), the gate trips instead of shrinking.

Usage: check_perf_regression.py CURRENT BASELINE [--tolerance 0.25]
           [--latency-tolerance 0.25] [--require-section NAME]...
"""

import argparse
import json
import sys


def load_points(path):
    """Maps (section, name, policy) -> {eps, p99}, with errors that name
    the offending file and key instead of a bare KeyError traceback.
    p99 is None for points without a latency_p99_us field."""
    with open(path) as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as err:
            sys.exit(f"error: {path}: not valid JSON: {err}")
    if not isinstance(record, dict) or "points" not in record:
        sys.exit(f"error: {path}: no 'points' array (not a bench JSON?)")
    points = {}
    for index, point in enumerate(record["points"]):
        missing = [field for field in
                   ("section", "name", "policy", "events_per_sec")
                   if field not in point]
        if missing:
            sys.exit(f"error: {path}: points[{index}] lacks "
                     f"{', '.join(missing)}")
        key = (point["section"], point["name"], point["policy"])
        p99 = point.get("latency_p99_us")
        points[key] = {"eps": float(point["events_per_sec"]),
                       "p99": float(p99) if p99 is not None else None}
    return points


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly produced bench JSON")
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown (default 0.25)")
    parser.add_argument("--latency-tolerance", type=float, default=0.25,
                        help="allowed fractional p99 latency growth "
                             "(default 0.25)")
    parser.add_argument("--require-section", action="append", default=[],
                        metavar="NAME",
                        help="fail unless this section has points in both "
                             "files (repeatable)")
    args = parser.parse_args()

    current = load_points(args.current)
    baseline = load_points(args.baseline)

    failures = []
    for section in args.require_section:
        for role, points, path in (("current", current, args.current),
                                   ("baseline", baseline, args.baseline)):
            if not any(key[0] == section for key in points):
                failures.append(f"required section '{section}' has no "
                                f"points in {role} file {path}")
    for key, base in sorted(baseline.items()):
        label = "/".join(key)
        cur = current.get(key)
        if cur is None:
            failures.append(f"{label}: missing from current run")
            continue
        base_eps, cur_eps = base["eps"], cur["eps"]
        floor = base_eps * (1.0 - args.tolerance)
        ratio = cur_eps / base_eps if base_eps > 0 else float("inf")
        slow = cur_eps < floor
        p99_note = ""
        lagging = False
        if base["p99"] is not None and cur["p99"] is not None:
            ceiling = base["p99"] * (1.0 + args.latency_tolerance)
            lagging = cur["p99"] > ceiling
            p99_note = (f", p99 {cur['p99']:.1f}us vs "
                        f"{base['p99']:.1f}us")
            if lagging:
                failures.append(
                    f"{label}: p99 {cur['p99']:.1f}us > {ceiling:.1f}us "
                    f"(baseline {base['p99']:.1f}us + "
                    f"{args.latency_tolerance:.0%})")
        status = "FAIL" if (slow or lagging) else "ok"
        print(f"{status:4} {label:60} {cur_eps:14.0f} ev/s "
              f"(baseline {base_eps:14.0f}, x{ratio:.2f}{p99_note})")
        if slow:
            failures.append(
                f"{label}: {cur_eps:.0f} ev/s < {floor:.0f} "
                f"(baseline {base_eps:.0f} - {args.tolerance:.0%})")

    for key in sorted(set(current) - set(baseline)):
        print(f"new  {'/'.join(key):60} {current[key]['eps']:14.0f} ev/s "
              "(not in baseline)")

    if failures:
        print(f"\n{len(failures)} perf regression(s) beyond "
              f"{args.tolerance:.0%} tolerance:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(baseline)} baseline points within "
          f"{args.tolerance:.0%} tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
