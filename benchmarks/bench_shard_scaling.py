"""Shard-scaling benchmark — parallel sharded builds vs the monolithic build.

Not a paper figure: this benchmark tracks the construction-path scaling of
the sharded index architecture and the binary index store.  The timed
payloads over the synthetic sparse-uncertainty dataset (default n = 20,000)
are

* ``single``  — the monolithic (single-shard) build;
* ``sharded`` — the same index kind built over N overlapping shards with W
  worker processes;
* ``load``    — reopening the saved sharded index from the binary store
  (which must be far cheaper than any rebuild).

The standalone runner verifies that sharded, monolithic and store-reloaded
indexes answer an identical pattern batch identically, and — on machines
with at least 4 cores — that the parallel build beats the single-shard build
wall-clock.  Run standalone; CI uses tiny parameters as a smoke test::

    python benchmarks/bench_shard_scaling.py --length 4000 --shards 4 --workers 2
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"
if str(SOURCE_ROOT) not in sys.path:  # allow running without installation
    sys.path.insert(0, str(SOURCE_ROOT))

from repro.datasets.patterns import sample_random_patterns, sample_valid_patterns
from repro.datasets.synthetic import sparse_uncertainty_string
from repro.indexes import build_index
from repro.io.store import load_index, save_index

DEFAULT_LENGTH = 20_000
DEFAULT_SHARDS = 8
DEFAULT_WORKERS = 4
DEFAULT_Z = 16.0
DEFAULT_ELL = 32
DEFAULT_KIND = "MWSA"
DEFAULT_PATTERNS = 200


def make_workload(length: int, pattern_count: int, z: float, ell: int):
    """The synthetic source and a mixed valid/random pattern batch."""
    source = sparse_uncertainty_string(length, 4, delta=0.1, seed=11)
    valid_count = (7 * pattern_count) // 10
    patterns = sample_valid_patterns(source, z, m=ell, count=valid_count, seed=1)
    patterns += sample_random_patterns(
        source, m=ell, count=pattern_count - valid_count, seed=2
    )
    return source, patterns


def main(argv=None) -> int:
    """Standalone single-vs-sharded-vs-store comparison (prints wall-clocks)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument("--z", type=float, default=DEFAULT_Z)
    parser.add_argument("--ell", type=int, default=DEFAULT_ELL)
    parser.add_argument("--kind", default=DEFAULT_KIND)
    parser.add_argument("--patterns", type=int, default=DEFAULT_PATTERNS)
    arguments = parser.parse_args(argv)

    source, patterns = make_workload(
        arguments.length, arguments.patterns, arguments.z, arguments.ell
    )
    print(
        f"workload: n={len(source)}, z={arguments.z:g}, ell={arguments.ell}, "
        f"kind={arguments.kind}, {len(patterns)} patterns, "
        f"{os.cpu_count()} cpus"
    )

    started = time.perf_counter()
    single = build_index(
        source, arguments.z, kind=arguments.kind, ell=arguments.ell, shards=1
    )
    single_seconds = time.perf_counter() - started

    started = time.perf_counter()
    sharded = build_index(
        source,
        arguments.z,
        kind=arguments.kind,
        ell=arguments.ell,
        shards=arguments.shards,
        workers=arguments.workers,
    )
    sharded_seconds = time.perf_counter() - started

    expected = single.match_many(patterns)
    if sharded.match_many(patterns) != expected:
        print("MISMATCH between single-shard and sharded results")
        return 1
    print(
        f"single shard: {single_seconds:.2f}s; "
        f"{arguments.shards} shards x {arguments.workers} workers: "
        f"{sharded_seconds:.2f}s (speedup {single_seconds / sharded_seconds:.2f}x)"
    )

    handle, path = tempfile.mkstemp(suffix=".idx")
    os.close(handle)
    try:
        started = time.perf_counter()
        save_index(path, sharded)
        save_seconds = time.perf_counter() - started
        started = time.perf_counter()
        loaded = load_index(path)
        load_seconds = time.perf_counter() - started
        if loaded.match_many(patterns) != expected:
            print("MISMATCH between stored and rebuilt results")
            return 1
        print(
            f"store: {os.path.getsize(path):,} bytes, save {save_seconds:.2f}s, "
            f"load {load_seconds:.2f}s "
            f"({sharded_seconds / load_seconds:.0f}x faster than rebuilding)"
        )
    finally:
        os.unlink(path)

    cpus = os.cpu_count() or 1
    if arguments.workers >= 4 and cpus >= 4 and sharded_seconds >= single_seconds:
        print("FAIL: parallel sharded build did not beat the single-shard build")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
