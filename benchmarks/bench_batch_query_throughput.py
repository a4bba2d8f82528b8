"""Batch query throughput — one ``match_many`` call vs a ``locate`` loop.

Not a paper figure: this benchmark tracks what answering a pattern batch at
once saves over answering it one pattern at a time.  Both run the same query
path (a single pattern is a batch of one).  The workload is a 1,000-pattern
batch (70 % patterns sampled from the z-estimation, 30 % uniformly random)
over the synthetic sparse-uncertainty dataset; the timed payloads are

* ``per-pattern`` — ``[index.locate(p) for p in batch]``: the planner, the
  minimizer, the leaf search and the verification once per pattern;
* ``batch``       — one ``index.match_many(batch)`` call: deduplication, one
  minimizer argmin and one bulk verification for the whole batch.  The leaf
  search walks the tries once per searched piece on MWST / MWST-G and is
  one packed-key search over all pieces on MWSA / MWSA-G.

Beside the four kinds, a 4-shard MWSA row times the sharded query: one
split of the batch, a leaf search in every shard and one verification
against the parent string.  The run fails (exit 1) when that row's answers
differ from the monolithic MWSA's.

Run standalone; CI uses tiny parameters as a smoke test::

    python benchmarks/bench_batch_query_throughput.py --length 600 --patterns 100
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"
if str(SOURCE_ROOT) not in sys.path:  # allow running without installation
    sys.path.insert(0, str(SOURCE_ROOT))

from repro.core.estimation import build_z_estimation
from repro.datasets.patterns import sample_random_patterns, sample_valid_patterns
from repro.datasets.synthetic import sparse_uncertainty_string
from repro.indexes import build_index

KINDS = ("MWSA", "MWST", "MWSA-G", "MWST-G")
SHARDS = 4
SHARDED_ROW = f"{SHARDS}-shard MWSA"
DEFAULT_LENGTH = 4000
DEFAULT_PATTERNS = 1000
DEFAULT_Z = 8.0
DEFAULT_ELL = 16


def make_workload(length: int, pattern_count: int, z: float, ell: int):
    """The synthetic source, a shared estimation and the mixed pattern batch."""
    source = sparse_uncertainty_string(length, 4, delta=0.1, seed=11)
    estimation = build_z_estimation(source, z)
    valid_count = (7 * pattern_count) // 10
    patterns = sample_valid_patterns(
        source, z, m=ell, count=valid_count, estimation=estimation, seed=1
    )
    patterns += sample_random_patterns(
        source, m=ell, count=pattern_count - valid_count, seed=2
    )
    return source, estimation, patterns


def run_per_pattern(index, patterns):
    return [index.locate(pattern) for pattern in patterns]


def run_batch(index, patterns):
    return index.match_many(patterns)


def main(argv=None) -> int:
    """Standalone per-pattern vs batch comparison (prints patterns/sec and speedups)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    parser.add_argument("--patterns", type=int, default=DEFAULT_PATTERNS)
    parser.add_argument("--z", type=float, default=DEFAULT_Z)
    parser.add_argument("--ell", type=int, default=DEFAULT_ELL)
    parser.add_argument("--kinds", nargs="*", default=list(KINDS))
    arguments = parser.parse_args(argv)

    source, estimation, patterns = make_workload(
        arguments.length, arguments.patterns, arguments.z, arguments.ell
    )
    print(
        f"workload: n={len(source)}, z={arguments.z:g}, ell={arguments.ell}, "
        f"{len(patterns)} patterns"
    )
    monolithic = build_index(
        source, arguments.z, kind="MWSA", ell=arguments.ell, estimation=estimation
    ).match_many(patterns)
    rows = [(kind, kind, {"estimation": estimation}) for kind in arguments.kinds]
    rows.append(
        (SHARDED_ROW, "MWSA", {"shards": SHARDS, "max_pattern_len": 2 * arguments.ell})
    )
    for label, kind, options in rows:
        index = build_index(source, arguments.z, kind=kind, ell=arguments.ell, **options)
        index.match_many(patterns[:5])  # warm the caches outside the timers
        started = time.perf_counter()
        per_pattern = run_per_pattern(index, patterns)
        mid = time.perf_counter()
        batch = run_batch(index, patterns)
        finished = time.perf_counter()
        if per_pattern != batch:
            print(f"{label}: MISMATCH between per-pattern and batch results")
            return 1
        if label == SHARDED_ROW and batch != monolithic:
            print(f"{label}: MISMATCH with the monolithic MWSA's answers")
            return 1
        per_pattern_rate = len(patterns) / (mid - started)
        batch_rate = len(patterns) / (finished - mid)
        print(
            f"{label}: per-pattern {per_pattern_rate:,.0f} pat/s, "
            f"batch {batch_rate:,.0f} pat/s, speedup {batch_rate / per_pattern_rate:.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
