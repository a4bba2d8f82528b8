"""Construction-throughput benchmark — build and reload time of every variant.

Not a paper figure: this benchmark tracks the construction of every index
variant on a synthetic sparse-uncertainty source (default n = 20,000): the
seven monolithic kinds and an 8-shard MWSA build.  Each structure has one
construction path.  Every build is timed end to end; all builds must answer
a shared pattern batch identically, and each monolithic index is saved and
reloaded and must still answer it the same way.

Timings are recorded twice: in seconds, and divided by the best-of time of
a short fixed calibration loop (mixed Python and numpy, recorded in the
report) run on the same host just before the builds.  The normalised build
time is what ``check_construction_regression.py`` compares against the
committed snapshot, so a slower or faster machine does not read as a
regression or a gain.  A reload that re-derived its tries or grid would
show as a low build/load ratio.

Peak construction memory is measured per build with ``tracemalloc`` in a
separate untimed pass.  The garbage collector runs before every timed build
and load, so a collection triggered by an earlier step does not land inside
a short timed load.  Run under pytest-benchmark
(``pytest benchmarks/ --benchmark-only``) or standalone::

    python benchmarks/bench_construction_throughput.py --length 20000
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"
if str(SOURCE_ROOT) not in sys.path:  # allow running without installation
    sys.path.insert(0, str(SOURCE_ROOT))

import numpy as np
import pytest

from repro.bench.measure import peak_rss_bytes
from repro.datasets.patterns import sample_random_patterns, sample_valid_patterns
from repro.datasets.synthetic import sparse_uncertainty_string
from repro.indexes import build_index

DEFAULT_LENGTH = 20_000
DEFAULT_Z = 8.0
DEFAULT_ELL = 16
DEFAULT_SHARDS = 8
DEFAULT_PATTERNS = 100
#: Every monolithic kind, built, saved and reloaded.
MONOLITHIC_KINDS = ("WST", "WSA", "MWST", "MWSA", "MWST-G", "MWSA-G", "MWST-SE")
#: Size of the calibration loop and how many times it runs (best of).
CALIBRATION_SIZE = 200_000
CALIBRATION_REPEATS = 7


def make_workload(length: int, pattern_count: int, z: float, ell: int):
    source = sparse_uncertainty_string(length, 4, delta=0.1, seed=17)
    valid = (7 * pattern_count) // 10
    patterns = sample_valid_patterns(source, z, m=ell, count=valid, seed=5)
    patterns += sample_random_patterns(
        source, m=ell, count=pattern_count - valid, seed=6
    )
    return source, patterns


def build_variant(source, z, ell, kind, shards=None):
    """One full construction of ``kind`` (sharded when ``shards`` is given)."""
    if kind in ("WST", "WSA"):
        ell = None
    if shards is not None:
        return build_index(
            source, z, kind=kind, ell=ell, shards=shards, max_pattern_len=2 * ell
        )
    return build_index(source, z, kind=kind, ell=ell)


def timed(action):
    """``(result, seconds)`` of one call, after a full garbage collection."""
    gc.collect()
    started = time.perf_counter()
    result = action()
    return result, time.perf_counter() - started


def calibration_seconds() -> float:
    """Best-of wall time of a fixed loop: the host-speed unit of the report.

    A Python integer loop and a stable numpy argsort of about the same
    length, the two kinds of work every construction mixes.
    """
    keys = np.random.default_rng(0).integers(0, 2**31, size=CALIBRATION_SIZE)
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        gc.collect()
        started = time.perf_counter()
        total = 0
        for value in range(CALIBRATION_SIZE):
            total += value * value % 7
        np.argsort(keys, kind="stable")
        best = min(best, time.perf_counter() - started)
    return best


def traced_peak_mb(builder) -> float:
    """Peak tracemalloc bytes of one build, in MB (separate untimed pass)."""
    tracemalloc.start()
    builder()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak / 1e6


# --------------------------------------------------------------------------- #
# pytest-benchmark entry points (tiny workload)                                #
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def construction_workload():
    return make_workload(4_000, 30, DEFAULT_Z, DEFAULT_ELL)


@pytest.mark.parametrize("kind", ["MWSA", "MWST", "MWSA-G", "MWST-SE"])
def test_construction(benchmark, construction_workload, kind):
    source, _ = construction_workload
    index = benchmark(lambda: build_variant(source, DEFAULT_Z, DEFAULT_ELL, kind))
    benchmark.extra_info["kind"] = kind
    benchmark.extra_info["index_size_mb"] = round(
        index.stats.index_size_bytes / 1e6, 4
    )


# --------------------------------------------------------------------------- #
# standalone runner                                                            #
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    parser.add_argument("--z", type=float, default=DEFAULT_Z)
    parser.add_argument("--ell", type=int, default=DEFAULT_ELL)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument("--patterns", type=int, default=DEFAULT_PATTERNS)
    parser.add_argument(
        "--skip-memory", action="store_true",
        help="skip the separate tracemalloc peak-memory pass",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    arguments = parser.parse_args(argv)
    z, ell = arguments.z, arguments.ell

    source, patterns = make_workload(arguments.length, arguments.patterns, z, ell)
    if not arguments.json:
        print(
            f"workload: n={len(source)}, z={z:g}, ell={ell}, "
            f"shards={arguments.shards}, {len(patterns)} patterns, "
            f"{os.cpu_count()} cpus"
        )

    # Warm caches (numpy kernels, dataset pages) so the first timed build is
    # not charged the process's one-off costs.
    warmup_source, _ = make_workload(min(1_000, arguments.length), 4, z, ell)
    build_variant(warmup_source, z, ell, "MWSA")
    calibration = calibration_seconds()

    targets = [(kind, None) for kind in MONOLITHIC_KINDS]
    targets.append(("MWSA", arguments.shards))
    rows = []
    built: dict[str, object] = {}
    expected = None
    for kind, shards in targets:
        label = f"SHARDED[{kind}]x{shards}" if shards else kind
        index, seconds = timed(lambda: build_variant(source, z, ell, kind, shards))
        answers = index.match_many(patterns)
        if expected is None:
            expected = answers
        elif answers != expected:
            print(f"MISMATCH: {label} answers differ from {targets[0][0]}")
            return 1
        row = {
            "kind": label,
            "build_seconds": seconds,
            "normalized_build": seconds / calibration,
        }
        if not arguments.skip_memory:
            row["peak_mb"] = traced_peak_mb(
                lambda: build_variant(source, z, ell, kind, shards)
            )
        rows.append(row)
        if shards is None:
            built[kind] = (index, seconds)

    # Store round-trip rows: persisted CSR tries and grid levels mean a
    # reload re-derives nothing, so load time should sit far below build time.
    from repro.io.store import load_index, save_index

    reload_rows = []
    with tempfile.TemporaryDirectory() as directory:
        for kind in MONOLITHIC_KINDS:
            index, build_seconds = built[kind]
            path = os.path.join(directory, f"{kind}.idx")
            _, save_seconds = timed(lambda: save_index(path, index))
            loaded, load_seconds = timed(lambda: load_index(path))
            if loaded.match_many(patterns) != expected:
                print(f"MISMATCH: {kind} answers differ after a store round-trip")
                return 1
            reload_rows.append({
                "kind": kind,
                "build_seconds": build_seconds,
                "save_seconds": save_seconds,
                "load_seconds": load_seconds,
                "reload_speedup": (
                    build_seconds / load_seconds if load_seconds > 0 else None
                ),
            })

    from repro.bench.metadata import run_metadata

    report = {
        "schema": "repro.bench.construction_throughput.v3",
        "metadata": run_metadata(),
        "length": len(source),
        "z": z,
        "ell": ell,
        "shards": arguments.shards,
        "patterns": len(patterns),
        "calibration": {
            "seconds": calibration,
            "loop": (
                f"best of {CALIBRATION_REPEATS}: {CALIBRATION_SIZE:,} Python "
                f"integer steps plus a stable argsort of {CALIBRATION_SIZE:,} "
                "int64 keys"
            ),
        },
        "rows": rows,
        "reload_rows": reload_rows,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if arguments.json:
        print(json.dumps(report, indent=2))
        return 0
    print(f"calibration loop: {calibration * 1e3:.1f} ms")
    for row in rows:
        parts = [
            f"{row['kind']}:",
            f"build={row['build_seconds']:.3f}s",
            f"normalized={row['normalized_build']:.1f}",
        ]
        if "peak_mb" in row:
            parts.append(f"peak {row['peak_mb']:.1f}MB")
        print("  ".join(parts))
    for row in reload_rows:
        print(
            f"{row['kind']}: build={row['build_seconds']:.3f}s  "
            f"save={row['save_seconds']:.3f}s  load={row['load_seconds']:.3f}s  "
            f"reload-speedup={row['reload_speedup']:.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
