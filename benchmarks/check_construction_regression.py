"""Regression gate: compare a fresh construction-benchmark run to the snapshot.

``BENCH_construction.json`` (committed at the repository root) records, for
every variant at the reference workload (n = 20,000), its build time divided
by the time of the report's calibration loop.  This checker compares a fresh
``--json`` run of ``bench_construction_throughput.py`` against that snapshot
and fails when a metric fell out of band.  Two kinds of metrics are gated:

* **normalised build time** of each row (build seconds / calibration
  seconds): dividing by the calibration loop run on the same host cancels
  most of the machine's speed, so the band is relative to the snapshot —
  ``fresh <= snapshot * MAX_RATIO`` with ``MAX_RATIO`` = 4, generous
  enough for noisy shared runners, tight enough to catch a path silently
  falling back to a quadratic implementation.  The fresh run must
  use the snapshot's workload (length, z, ℓ, shards);
* **reload speedups** (build seconds / load seconds): gated on an
  *absolute* floor — a reload that re-derived its tries or grid would land
  near 1x, far below the default floor of 2x.

Usage::

    python benchmarks/bench_construction_throughput.py --length 20000 \
        --skip-memory --json > fresh.json
    python benchmarks/check_construction_regression.py \
        --snapshot BENCH_construction.json --fresh fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: Workload parameters a fresh run must share with the snapshot.
WORKLOAD_KEYS = ("length", "z", "ell", "shards")
#: How many times the snapshot's normalised build time a fresh row may take.
MAX_RATIO = 4.0
DEFAULT_MIN_RELOAD_SPEEDUP = 2.0


def _row_values(report: dict, key: str, metric: str) -> dict[str, float]:
    return {
        row["kind"]: float(row[metric])
        for row in report.get(key, ())
        if row.get(metric) is not None
    }


def collect_normalized_builds(report: dict) -> dict[str, float]:
    """Build seconds per calibration second, per row."""
    return {
        f"rows/{kind}/normalized_build": value
        for kind, value in _row_values(report, "rows", "normalized_build").items()
    }


def collect_reload_speedups(report: dict) -> dict[str, float]:
    """The reload speedups (gated on an absolute floor)."""
    return {
        f"reload_rows/{kind}/reload_speedup": value
        for kind, value in _row_values(report, "reload_rows", "reload_speedup").items()
    }


def compare(
    snapshot: dict,
    fresh: dict,
    min_reload_speedup: float = DEFAULT_MIN_RELOAD_SPEEDUP,
) -> list[str]:
    """Violation messages; empty when the fresh run is within the band."""
    violations = [
        f"workload {key}: fresh {fresh.get(key)!r} != snapshot {snapshot.get(key)!r}"
        for key in WORKLOAD_KEYS
        if fresh.get(key) != snapshot.get(key)
    ]
    fresh_builds = collect_normalized_builds(fresh)
    for name, reference in sorted(collect_normalized_builds(snapshot).items()):
        value = fresh_builds.get(name)
        if value is None:
            violations.append(f"{name}: missing from the fresh run")
        elif value > reference * MAX_RATIO:
            violations.append(
                f"{name}: fresh {value:.1f} > {reference * MAX_RATIO:.1f} "
                f"(snapshot {reference:.1f} * tolerance {MAX_RATIO:g})"
            )
    fresh_reloads = collect_reload_speedups(fresh)
    for name in sorted(collect_reload_speedups(snapshot)):
        value = fresh_reloads.get(name)
        if value is None:
            violations.append(f"{name}: missing from the fresh run")
        elif value < min_reload_speedup:
            violations.append(
                f"{name}: fresh {value:.2f}x reload speedup is below the "
                f"{min_reload_speedup:g}x floor (reload may be re-deriving "
                f"its tries or grid)"
            )
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snapshot", required=True, help="committed BENCH_construction.json")
    parser.add_argument("--fresh", required=True, help="fresh --json run to check")
    parser.add_argument(
        "--min-reload-speedup", type=float, default=DEFAULT_MIN_RELOAD_SPEEDUP,
        help=f"absolute floor on every reload speedup "
        f"(default {DEFAULT_MIN_RELOAD_SPEEDUP:g}x)",
    )
    arguments = parser.parse_args(argv)
    with open(arguments.snapshot, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    with open(arguments.fresh, "r", encoding="utf-8") as handle:
        fresh = json.load(handle)
    violations = compare(snapshot, fresh, arguments.min_reload_speedup)
    compared = len(collect_normalized_builds(snapshot)) + len(
        collect_reload_speedups(snapshot)
    )
    if violations:
        print(f"REGRESSION: {len(violations)} of {compared} metrics out of band")
        for message in violations:
            print(f"  {message}")
        return 1
    print(
        f"OK: {compared} metrics within the tolerance band "
        f"(max ratio {MAX_RATIO:g}, reload floor "
        f"{arguments.min_reload_speedup:g}x; n={snapshot.get('length')}, "
        f"calibration {fresh['calibration']['seconds'] * 1e3:.1f} ms fresh, "
        f"{snapshot['calibration']['seconds'] * 1e3:.1f} ms snapshot)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
