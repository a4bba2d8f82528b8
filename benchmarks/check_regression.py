"""Regression gate: check a committed benchmark snapshot, and a fresh run.

One script gates the three benchmark records at the repository root:

============  ===========================  ======================================
gate          snapshot                     written by
============  ===========================  ======================================
construction  ``BENCH_construction.json``  ``bench_construction_throughput.py``
update        ``BENCH_update.json``        ``bench_update_throughput.py``
serving       ``BENCH_http_serving.json``  ``bench_http_serving.py``
============  ===========================  ======================================

Every bar is a constant of this module, never a field of a snapshot, so
re-snapshotting after a slowdown cannot lower it.  Absolute bars apply to
every report given (the snapshot, and the fresh run when there is one);
relative bands compare ``--fresh`` against the snapshot.

* **construction** — a fresh run must use the snapshot's workload (length,
  z, ℓ, shards), and each row's build time divided by the report's
  calibration loop may reach at most ``MAX_BUILD_RATIO`` times the
  snapshot's.  Every reload speedup (build seconds / load seconds) must
  reach ``MIN_RELOAD_SPEEDUP``: a reload that re-derived its tries or grid
  would land near 1x.
* **update** — the snapshot's monolithic update+requery speedup over
  rebuild+requery must reach ``MIN_SNAPSHOT_MONOLITH_SPEEDUP`` at its
  reference workload (n = 20,000).  Fresh speedups, which CI measures at a
  much smaller n, must reach ``MIN_UPDATE_RATIO`` of the snapshot's: a
  localized path degraded into a full rebuild would land near 1x.
* **serving** — no measured row may answer a non-200.  At the top
  concurrency, micro-batching must beat no batching by
  ``MIN_BATCHING_SPEEDUP``, and checksum verification may add at most
  ``MAX_VERIFY_OVERHEAD`` to a store reload; both are waived at smoke scale,
  where fixed costs dominate, and the second on reports without a
  durability section.  The top worker level must beat one worker by
  ``MIN_SCALING`` when the run had the cores to enforce it, and no worker's
  copy-on-write share of the store may exceed ``MAX_PRIVATE_FRACTION``.
  Fresh throughputs must reach ``MIN_THROUGHPUT_RATIO`` of the snapshot's
  row at the same level.

Usage::

    python benchmarks/bench_construction_throughput.py --length 20000 \\
        --skip-memory --json > fresh.json
    python benchmarks/check_regression.py construction \\
        --snapshot BENCH_construction.json --fresh fresh.json
    python benchmarks/check_regression.py serving --snapshot BENCH_http_serving.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: Workload parameters a fresh construction run must share with the snapshot.
CONSTRUCTION_WORKLOAD = ("length", "z", "ell", "shards")
MAX_BUILD_RATIO = 4.0
MIN_RELOAD_SPEEDUP = 2.0
MIN_SNAPSHOT_MONOLITH_SPEEDUP = 5.0
#: Update speedups held to the relative band.
UPDATE_SPEEDUPS = ("monolith_speedup", "sharded_speedup")
MIN_UPDATE_RATIO = 0.25
MIN_BATCHING_SPEEDUP = 2.0
MAX_VERIFY_OVERHEAD = 0.10
MIN_SCALING = 1.7
MAX_PRIVATE_FRACTION = 0.15
MIN_THROUGHPUT_RATIO = 0.25


class Gate:
    """The checks of one gate run: how many ran, what failed, what was waived."""

    def __init__(self) -> None:
        self.checked = 0
        self.violations: list[str] = []
        self.notes: list[str] = []

    def band(self, name: str, value, limit: float, *, floor: bool, basis: str) -> None:
        """Hold ``value`` to a floor (``floor=True``) or a ceiling at ``limit``."""
        self.checked += 1
        if value is None:
            self.violations.append(f"{name}: missing ({basis})")
        elif value < limit if floor else value > limit:
            relation = "<" if floor else ">"
            self.violations.append(f"{name}: {value:.4g} {relation} {limit:.4g} ({basis})")

    def fail(self, message: str) -> None:
        self.checked += 1
        self.violations.append(message)

    def note(self, label: str, message: str) -> None:
        self.notes.append(f"note ({label}): {message}")


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _reports(snapshot: dict, fresh: dict | None):
    yield "snapshot", snapshot
    if fresh is not None:
        yield "fresh", fresh


def _by_kind(report: dict, section: str, metric: str) -> dict:
    return {row["kind"]: row.get(metric) for row in report.get(section) or []}


def construction(gate: Gate, snapshot: dict, fresh: dict | None) -> str:
    reloaded = list(_by_kind(snapshot, "reload_rows", "reload_speedup"))
    for label, report in _reports(snapshot, fresh):
        speedups = _by_kind(report, "reload_rows", "reload_speedup")
        for kind in reloaded:
            gate.band(
                f"{label} reload_rows/{kind}/reload_speedup", speedups.get(kind),
                MIN_RELOAD_SPEEDUP, floor=True,
                basis="reload speedup floor; a reload re-deriving its tries or grid lands near 1x",
            )
    if fresh is not None:
        for key in CONSTRUCTION_WORKLOAD:
            if fresh.get(key) != snapshot.get(key):
                gate.fail(f"workload {key}: fresh {fresh.get(key)!r} != snapshot {snapshot.get(key)!r}")
        builds = _by_kind(fresh, "rows", "normalized_build")
        for kind, reference in _by_kind(snapshot, "rows", "normalized_build").items():
            gate.band(
                f"rows/{kind}/normalized_build", builds.get(kind), reference * MAX_BUILD_RATIO,
                floor=False, basis=f"snapshot {reference:.1f} * tolerance {MAX_BUILD_RATIO:g}",
            )
    calibration = [
        f"{report['calibration']['seconds'] * 1e3:.1f} ms {label}"
        for label, report in _reports(snapshot, fresh)
    ]
    return (
        f"max build ratio {MAX_BUILD_RATIO:g}, reload floor {MIN_RELOAD_SPEEDUP:g}x; "
        f"n={snapshot.get('length')}, calibration {', '.join(calibration)}"
    )


def update(gate: Gate, snapshot: dict, fresh: dict | None) -> str:
    gate.band(
        "snapshot monolith_speedup", snapshot.get("monolith_speedup"),
        MIN_SNAPSHOT_MONOLITH_SPEEDUP, floor=True,
        basis="acceptance bar at the reference workload",
    )
    if fresh is not None:
        for name in UPDATE_SPEEDUPS:
            reference = snapshot.get(name)
            if reference is None:
                gate.fail(f"{name}: missing from the snapshot")
                continue
            gate.band(
                f"fresh {name}", fresh.get(name), reference * MIN_UPDATE_RATIO, floor=True,
                basis=f"snapshot {reference:.2f}x * tolerance {MIN_UPDATE_RATIO:g}",
            )
    runs = [
        f"{label} n={report.get('length')} at {report.get('monolith_speedup') or 0:.2f}x"
        for label, report in _reports(snapshot, fresh)
    ]
    return (
        f"min ratio {MIN_UPDATE_RATIO:g}, snapshot floor {MIN_SNAPSHOT_MONOLITH_SPEEDUP:g}x; "
        + ", ".join(runs)
    )


def batching_speedup(report: dict) -> tuple[int, float] | None:
    """(top concurrency, on/off throughput ratio) from the micro-batching rows."""
    rows = report.get("rows") or []
    if not rows:
        return None
    top = max(row["concurrency"] for row in rows)
    rates = {row["batching"]: row["requests_per_second"] for row in rows if row["concurrency"] == top}
    if True not in rates or False not in rates:
        return None
    return top, rates[True] / rates[False]


def _serving_bars(gate: Gate, label: str, report: dict) -> None:
    for row in (report.get("rows") or []) + (report.get("cluster_rows") or []):
        gate.band(
            f"{label} errors", row.get("errors", 0), 0, floor=False,
            basis="non-200 responses in a measured row",
        )
    smoke = bool((report.get("workload") or {}).get("smoke"))
    pair = batching_speedup(report)
    if pair is None:
        gate.fail(f"{label}: no micro-batching rows to check")
    elif smoke:
        gate.note(label, f"smoke run — batching bar not enforced "
                         f"(recorded {pair[1]:.2f}x at concurrency {pair[0]})")
    else:
        gate.band(
            f"{label} micro-batching speedup at concurrency {pair[0]}", pair[1],
            MIN_BATCHING_SPEEDUP, floor=True, basis="batching-on vs batching-off",
        )
    durability = report.get("durability")
    if durability is None:
        gate.note(label, "no durability section — verify gate skipped")
    elif smoke:
        gate.note(label, f"smoke run — verify-overhead gate not enforced (recorded "
                         f"{durability['verify_overhead_ratio']:+.1%} over a "
                         f"{durability['store_bytes']:,}-byte store)")
    else:
        gate.band(
            f"{label} verify overhead", durability["verify_overhead_ratio"],
            MAX_VERIFY_OVERHEAD, floor=False, basis="checksum pass's share of a store reload",
        )
    gates = report.get("cluster_gates") or {}
    if not gates:
        gate.fail(f"{label}: no multi-worker gates recorded")
        return
    if gates.get("scaling_enforced"):
        gate.band(
            f"{label} multi-worker scaling on {gates.get('cores')} cores",
            gates.get("speedup", 0.0), MIN_SCALING, floor=True,
            basis="top worker level vs one worker",
        )
    else:
        gate.note(label, f"scaling bar not enforced — {gates.get('scaling_skip_reason')} "
                         f"(recorded {gates.get('speedup')}x on {gates.get('cores')} core(s))")
    fractions = gates.get("private_fractions") or {}
    if not fractions:
        gate.fail(f"{label}: no per-worker store-mapping accounting recorded")
    for pid, fraction in sorted(fractions.items()):
        gate.band(
            f"{label} worker pid {pid} copy-on-write share", fraction, MAX_PRIVATE_FRACTION,
            floor=False, basis="the mapped index must be shared, not copied per worker",
        )


def _throughputs(report: dict) -> dict:
    return {
        (tag, row.get("workers"), row.get("concurrency"), row.get("batching")):
        row["requests_per_second"]
        for key, tag in (("rows", "batching"), ("cluster_rows", "cluster"))
        for row in report.get(key) or []
    }


def serving(gate: Gate, snapshot: dict, fresh: dict | None) -> str:
    for label, report in _reports(snapshot, fresh):
        _serving_bars(gate, label, report)
    if fresh is not None:
        measured = _throughputs(fresh)
        for name, reference in sorted(_throughputs(snapshot).items(), key=str):
            if name in measured:  # a fresh smoke run may measure fewer levels
                gate.band(
                    f"fresh throughput {name}", measured[name],
                    reference * MIN_THROUGHPUT_RATIO, floor=True,
                    basis=f"snapshot {reference:,.0f} req/s * tolerance {MIN_THROUGHPUT_RATIO:g}",
                )
    pair = batching_speedup(snapshot) or (None, 0.0)
    gates = snapshot.get("cluster_gates") or {}
    return (
        f"micro-batching {pair[1]:.2f}x >= {MIN_BATCHING_SPEEDUP:g}x at concurrency {pair[0]}; "
        f"scaling {gates.get('speedup')}x "
        f"{'enforced' if gates.get('scaling_enforced') else 'recorded'}"
    )


GATES = {"construction": construction, "update": update, "serving": serving}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("gate", choices=sorted(GATES))
    parser.add_argument("--snapshot", required=True, help="the committed BENCH_*.json")
    parser.add_argument("--fresh", help="a fresh --json run to compare with the snapshot")
    arguments = parser.parse_args(argv)
    snapshot = load(arguments.snapshot)
    fresh = load(arguments.fresh) if arguments.fresh else None
    gate = Gate()
    summary = GATES[arguments.gate](gate, snapshot, fresh)
    for note in gate.notes:
        print(note)
    if gate.violations:
        print(f"REGRESSION: {len(gate.violations)} of {gate.checked} {arguments.gate} checks failed")
        for message in gate.violations:
            print(f"  {message}")
        return 1
    print(f"OK: {gate.checked} {arguments.gate} checks pass ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
