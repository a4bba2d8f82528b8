"""Update-throughput benchmark — incremental repair vs full rebuild.

Not a paper figure: this benchmark tracks the point-update path introduced
with mutable weighted strings.  For a synthetic sparse-uncertainty source
(default n = 20,000) it measures, per single-position update:

* ``rebuild``   — mutate the string, rebuild the index from scratch, requery;
* ``monolith``  — the monolithic minimizer index's localized leaf
  re-derivation (``apply_updates``), requery;
* ``sharded``   — the sharded index's dirty-shard repair (each dirty shard
  repairs itself, localized from its own checkpoints), requery.

The report lists the strategies each path took (``monolith_strategies``,
and per dirty shard ``sharded_strategies``).  Both update paths must answer
the post-update pattern batch bit-identically to the from-scratch rebuild,
and the *monolithic localized* path must beat it by at least the factor
asserted below (the acceptance bar is 5x for update+requery at n = 20,000;
CI runs a tiny smoke configuration that only checks agreement, and that at
least one shard repaired ``localized``).  The bar had been recalibrated
down to 3x when the array-backed construction fast path made the rebuild
denominator ~8x faster; checkpointed z-estimation replay plus the batched
leaf-merge tie resolution brought the localized path back over 5x against
that faster baseline.  Run standalone::

    python benchmarks/bench_update_throughput.py --length 20000 --updates 5
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"
if str(SOURCE_ROOT) not in sys.path:  # allow running without installation
    sys.path.insert(0, str(SOURCE_ROOT))

import numpy as np

from repro.datasets.patterns import sample_random_patterns, sample_valid_patterns
from repro.datasets.synthetic import sparse_uncertainty_string
from repro.indexes import build_index

DEFAULT_LENGTH = 20_000
DEFAULT_Z = 4.0
DEFAULT_ELL = 8
DEFAULT_KIND = "MWSA"
DEFAULT_SHARDS = 12
DEFAULT_PATTERNS = 200
DEFAULT_UPDATES = 5
#: The acceptance bar: monolithic localized update+requery vs full
#: rebuild+requery.  Restored to 5x (from the 3x post-array recalibration)
#: by checkpointed z-estimation replay and the batched leaf-merge tie
#: resolution.
REQUIRED_SPEEDUP = 5.0


def make_workload(length: int, pattern_count: int, z: float, ell: int):
    source = sparse_uncertainty_string(length, 4, delta=0.1, seed=23)
    valid = (7 * pattern_count) // 10
    patterns = sample_valid_patterns(source, z, m=ell, count=valid, seed=3)
    patterns += sample_random_patterns(
        source, m=ell, count=pattern_count - valid, seed=4
    )
    return source, patterns


def random_update(source, rng):
    """One random single-position re-weighting."""
    position = int(rng.integers(0, len(source)))
    row = np.asarray(source.matrix[position]).copy()
    row[int(rng.integers(source.sigma))] += 0.6
    return position, row / row.sum()


# --------------------------------------------------------------------------- #
# standalone runner                                                            #
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    parser.add_argument("--z", type=float, default=DEFAULT_Z)
    parser.add_argument("--ell", type=int, default=DEFAULT_ELL)
    parser.add_argument("--kind", default=DEFAULT_KIND)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument("--patterns", type=int, default=DEFAULT_PATTERNS)
    parser.add_argument("--updates", type=int, default=DEFAULT_UPDATES)
    parser.add_argument(
        "--require-speedup", type=float, default=None,
        help=f"fail unless the monolithic localized path beats the rebuild "
        f"by this factor "
        f"(default: {REQUIRED_SPEEDUP:g} at n >= {DEFAULT_LENGTH}, off below)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    arguments = parser.parse_args(argv)

    source, patterns = make_workload(
        arguments.length, arguments.patterns, arguments.z, arguments.ell
    )
    required = arguments.require_speedup
    if required is None and arguments.length >= DEFAULT_LENGTH:
        required = REQUIRED_SPEEDUP
    if not arguments.json:
        print(
            f"workload: n={len(source)}, z={arguments.z:g}, ell={arguments.ell}, "
            f"kind={arguments.kind}, shards={arguments.shards}, "
            f"{len(patterns)} patterns, {os.cpu_count()} cpus"
        )

    monolith = build_index(source, arguments.z, kind=arguments.kind, ell=arguments.ell)
    sharded = build_index(
        source, arguments.z, kind=arguments.kind, ell=arguments.ell,
        shards=arguments.shards, max_pattern_len=2 * arguments.ell,
    )

    rng = np.random.default_rng(99)
    rebuild_times, monolith_times, sharded_times = [], [], []
    strategies, shard_strategies = set(), set()
    for _ in range(arguments.updates):
        update = [random_update(source, rng)]

        started = time.perf_counter()
        report = monolith.apply_updates(update)
        expected = monolith.match_many(patterns)
        monolith_times.append(time.perf_counter() - started)
        strategies.add(report.strategy)

        started = time.perf_counter()
        report = sharded.apply_updates(update)
        sharded_answers = sharded.match_many(patterns)
        sharded_times.append(time.perf_counter() - started)
        shard_strategies.update(
            repair["strategy"] for repair in report.details["shard_repairs"]
        )

        # The from-scratch baseline over the already-mutated string.
        started = time.perf_counter()
        rebuilt = build_index(
            source, arguments.z, kind=arguments.kind, ell=arguments.ell
        )
        rebuilt_answers = rebuilt.match_many(patterns)
        rebuild_times.append(time.perf_counter() - started)

        if expected != rebuilt_answers or sharded_answers != rebuilt_answers:
            print("MISMATCH: updated indexes disagree with the full rebuild", file=sys.stderr)
            return 1

    rebuild = float(np.median(rebuild_times))
    monolith_median = float(np.median(monolith_times))
    sharded_median = float(np.median(sharded_times))
    report = {
        "schema": "repro.bench.update_throughput.v1",
        "length": len(source),
        "updates": arguments.updates,
        "patterns": len(patterns),
        "monolith_strategies": sorted(strategies),
        "sharded_strategies": sorted(shard_strategies),
        "rebuild_requery_seconds": rebuild,
        "monolith_update_requery_seconds": monolith_median,
        "sharded_update_requery_seconds": sharded_median,
        "monolith_speedup": rebuild / monolith_median,
        "sharded_speedup": rebuild / sharded_median,
    }
    # Verdict lines go to stderr, so ``--json`` stdout is only the report
    # (check_regression.py reads it) even when a check fails.
    if arguments.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"full rebuild + requery: {rebuild:.3f}s (median of "
            f"{arguments.updates} single-position updates)"
        )
        print(
            f"monolithic apply_updates + requery: {monolith_median:.3f}s "
            f"({report['monolith_speedup']:.1f}x, "
            f"strategies={report['monolith_strategies']})"
        )
        print(
            f"sharded dirty-shard update + requery: {sharded_median:.3f}s "
            f"({report['sharded_speedup']:.1f}x, "
            f"shard strategies={report['sharded_strategies']})"
        )
    if required is not None:
        # The monolithic localized path carries the bar; the sharded path
        # runs the same repair per dirty shard, then searches every shard.
        if report["monolith_speedup"] < required:
            print(
                f"FAIL: monolithic localized update is "
                f"{report['monolith_speedup']:.1f}x vs the full rebuild, "
                f"required {required:g}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
