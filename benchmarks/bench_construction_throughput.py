"""Construction-throughput benchmark — array-backed fast path vs reference.

Not a paper figure: this benchmark tracks the structure-of-arrays
construction pipeline (radix-sorted leaf arrays, vectorised mismatch
extraction).  For a synthetic sparse-uncertainty source (default
n = 20,000) it builds every minimizer variant that samples the z-estimation
through both leaf construction paths:

* ``reference`` — the frozen per-leaf path (leaves derived and sorted
  object by object, kept selectable precisely for this comparison);
* ``vectorized`` — the array-backed fast path (the default everywhere).

Both share the z-estimation, which has one construction path.  Both paths
must answer a shared pattern batch bit-identically (checked for every
variant, including the sharded build), and the *monolithic minimizer
family* (MWST, MWSA, MWST-G, MWSA-G) must build at least ``3x`` faster
through the fast path at the default size — the acceptance bar of the
array-backed construction work.  ``WST``, ``WSA`` and ``MWST-SE`` (the
space-efficient DFS) have a single construction path, so they are reported
new-path-only.  Peak construction memory is measured per build with
``tracemalloc`` in a separate untimed pass.  Run under pytest-benchmark
(``pytest benchmarks/ --benchmark-only``) or standalone::

    python benchmarks/bench_construction_throughput.py --length 20000
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"
if str(SOURCE_ROOT) not in sys.path:  # allow running without installation
    sys.path.insert(0, str(SOURCE_ROOT))

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
#: Variants with both leaf construction paths — also the kinds the
#: acceptance bar is asserted on (aggregate build time).
MONOLITHIC_MINIMIZER_FAMILY = ("MWST", "MWSA", "MWST-G", "MWSA-G")
#: Variants with a single construction path, reported new-path-only.
SINGLE_PATH_KINDS = ("WST", "WSA", "MWST-SE")
#: The acceptance bar: reference-path vs fast-path aggregate build time.
REQUIRED_SPEEDUP = 3.0
#: The tree variants whose construction the CSR trie core accelerates.
TREE_FAMILY = ("WST", "MWST")
#: The array/kernel-core acceptance bar: PR-5 path (object tries) vs the CSR
#: path, aggregate end-to-end build time of the tree family.
REQUIRED_TREE_SPEEDUP = 2.0
#: Every monolithic kind, for the store save/reload throughput rows.
ALL_MONOLITHIC_KINDS = (*MONOLITHIC_MINIMIZER_FAMILY, *SINGLE_PATH_KINDS)


def make_workload(length: int, pattern_count: int, z: float, ell: int):
    source = sparse_uncertainty_string(length, 4, delta=0.1, seed=17)
    valid = (7 * pattern_count) // 10
    patterns = sample_valid_patterns(source, z, m=ell, count=valid, seed=5)
    patterns += sample_random_patterns(
        source, m=ell, count=pattern_count - valid, seed=6
    )
    return source, patterns


def build_variant(source, z, ell, kind, method, shards=None):
    """One full construction through the chosen leaf path."""
    options = {} if kind in SINGLE_PATH_KINDS else {"method": method}
    if shards is not None:
        return build_index(
            source, z, kind=kind, ell=ell, shards=shards,
            max_pattern_len=2 * ell, **options,
        )
    return build_index(source, z, kind=kind, ell=ell, **options)


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
def test_construction_fast_path(benchmark, construction_workload, kind):
    source, _ = construction_workload
    index = benchmark(
        lambda: build_variant(source, DEFAULT_Z, DEFAULT_ELL, kind, "vectorized")
    )
    benchmark.extra_info["kind"] = kind
    benchmark.extra_info["index_size_mb"] = round(
        index.stats.index_size_bytes / 1e6, 4
    )


def test_reference_and_fast_path_agree(construction_workload):
    source, patterns = construction_workload
    for kind in ("MWSA", "MWST-G"):
        old = build_variant(source, DEFAULT_Z, DEFAULT_ELL, kind, "reference")
        new = build_variant(source, DEFAULT_Z, DEFAULT_ELL, kind, "vectorized")
        assert old.match_many(patterns) == new.match_many(patterns)


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
    parser.add_argument(
        "--require-speedup", type=float, default=None,
        help=f"fail unless the monolithic minimizer family builds this much "
        f"faster through the fast path (default: {REQUIRED_SPEEDUP:g} at "
        f"n >= {DEFAULT_LENGTH}, off below)",
    )
    parser.add_argument(
        "--require-tree-speedup", type=float, default=None,
        help=f"fail unless the tree family (WST+MWST) builds this much faster "
        f"through the CSR-trie core than through the PR-5 object-trie path "
        f"(default: {REQUIRED_TREE_SPEEDUP:g} at n >= {DEFAULT_LENGTH}, off below)",
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
            f"shards={arguments.shards}, {len(patterns)} patterns, "
            f"{os.cpu_count()} cpus"
        )

    # Warm caches (numpy kernels, dataset pages) so the first timed build is
    # not charged the process's one-off costs.
    warmup_source, _ = make_workload(min(1_000, arguments.length), 4, arguments.z, arguments.ell)
    for method in ("reference", "vectorized"):
        build_variant(warmup_source, arguments.z, arguments.ell, "MWSA", method)

    rows = []
    built: dict[str, object] = {}
    build_seconds: dict[str, float] = {}
    family_old = family_new = 0.0
    targets = [(kind, None) for kind in MONOLITHIC_MINIMIZER_FAMILY]
    targets.append(("MWSA", arguments.shards))  # the sharded build
    for kind, shards in targets:
        label = f"SHARDED[{kind}]x{shards}" if shards else kind
        started = time.perf_counter()
        old_index = build_variant(
            source, arguments.z, arguments.ell, kind, "reference", shards
        )
        old_seconds = time.perf_counter() - started
        started = time.perf_counter()
        new_index = build_variant(
            source, arguments.z, arguments.ell, kind, "vectorized", shards
        )
        new_seconds = time.perf_counter() - started
        if old_index.match_many(patterns) != new_index.match_many(patterns):
            print(f"MISMATCH: {label} answers differ between construction paths")
            return 1
        row = {
            "kind": label,
            "reference_seconds": old_seconds,
            "vectorized_seconds": new_seconds,
            "speedup": old_seconds / new_seconds if new_seconds > 0 else None,
        }
        if not arguments.skip_memory:
            row["reference_peak_mb"] = traced_peak_mb(
                lambda: build_variant(
                    source, arguments.z, arguments.ell, kind, "reference", shards
                )
            )
            row["vectorized_peak_mb"] = traced_peak_mb(
                lambda: build_variant(
                    source, arguments.z, arguments.ell, kind, "vectorized", shards
                )
            )
        rows.append(row)
        if shards is None:
            built[kind] = new_index
            build_seconds[kind] = new_seconds
        if shards is None:
            family_old += old_seconds
            family_new += new_seconds

    # One construction path each, reported for completeness.
    for kind in SINGLE_PATH_KINDS:
        started = time.perf_counter()
        index = build_variant(source, arguments.z, arguments.ell, kind, None)
        seconds = time.perf_counter() - started
        row = {"kind": kind, "vectorized_seconds": seconds}
        if not arguments.skip_memory:
            row["vectorized_peak_mb"] = traced_peak_mb(
                lambda: build_variant(source, arguments.z, arguments.ell, kind, None)
            )
        index.match_many(patterns)  # exercise the built index
        rows.append(row)
        built[kind] = index
        build_seconds[kind] = seconds

    # PR-5 path rows: the same end-to-end builds through the object-trie
    # construction that PR 5 shipped, against the CSR-trie core.  Both are
    # the vectorized pipeline — the toggle isolates exactly the trie layer,
    # which dominates the tree-variant builds.
    from repro.strings.trie import trie_implementation

    tree_rows = []
    tree_old = tree_new = 0.0
    for kind in TREE_FAMILY:
        with trie_implementation("object"):
            started = time.perf_counter()
            pr5_index = build_variant(source, arguments.z, arguments.ell, kind, "vectorized")
            pr5_seconds = time.perf_counter() - started
        csr_seconds = build_seconds[kind]
        if pr5_index.match_many(patterns) != built[kind].match_many(patterns):
            print(f"MISMATCH: {kind} answers differ between trie implementations")
            return 1
        tree_rows.append({
            "kind": kind,
            "pr5_object_trie_seconds": pr5_seconds,
            "csr_trie_seconds": csr_seconds,
            "speedup": pr5_seconds / csr_seconds if csr_seconds > 0 else None,
        })
        tree_old += pr5_seconds
        tree_new += csr_seconds
    tree_speedup = tree_old / tree_new if tree_new > 0 else None

    # Store round-trip rows: persisted CSR tries and grid levels mean a
    # reload re-derives nothing, so load time should sit far below build time.
    import tempfile

    from repro.io.store import load_index, save_index

    reload_rows = []
    with tempfile.TemporaryDirectory() as directory:
        for kind in ALL_MONOLITHIC_KINDS:
            path = os.path.join(directory, f"{kind}.idx")
            started = time.perf_counter()
            save_index(path, built[kind])
            save_seconds = time.perf_counter() - started
            started = time.perf_counter()
            loaded = load_index(path)
            load_seconds = time.perf_counter() - started
            if loaded.match_many(patterns) != built[kind].match_many(patterns):
                print(f"MISMATCH: {kind} answers differ after a store round-trip")
                return 1
            reload_rows.append({
                "kind": kind,
                "build_seconds": build_seconds[kind],
                "save_seconds": save_seconds,
                "load_seconds": load_seconds,
                "reload_speedup": (
                    build_seconds[kind] / load_seconds if load_seconds > 0 else None
                ),
            })

    family_speedup = family_old / family_new if family_new > 0 else None
    from repro.bench.metadata import run_metadata

    report = {
        "schema": "repro.bench.construction_throughput.v2",
        "metadata": run_metadata(),
        "length": len(source),
        "z": arguments.z,
        "ell": arguments.ell,
        "patterns": len(patterns),
        "rows": rows,
        "tree_rows": tree_rows,
        "reload_rows": reload_rows,
        "monolithic_minimizer_family_speedup": family_speedup,
        "tree_family_pr5_speedup": tree_speedup,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if arguments.json:
        print(json.dumps(report, indent=2))
    else:
        for row in rows:
            parts = [f"{row['kind']}:"]
            if "reference_seconds" in row:
                parts.append(f"old={row['reference_seconds']:.3f}s")
            parts.append(f"new={row['vectorized_seconds']:.3f}s")
            if row.get("speedup") is not None:
                parts.append(f"speedup={row['speedup']:.2f}x")
            if "vectorized_peak_mb" in row:
                if "reference_peak_mb" in row:
                    parts.append(
                        f"peak {row['reference_peak_mb']:.1f}->"
                        f"{row['vectorized_peak_mb']:.1f}MB"
                    )
                else:
                    parts.append(f"peak {row['vectorized_peak_mb']:.1f}MB")
            print("  ".join(parts))
        print(
            f"monolithic minimizer family (MWST/MWSA/±G) aggregate speedup: "
            f"{family_speedup:.2f}x"
        )
        for row in tree_rows:
            print(
                f"{row['kind']}: pr5-object-trie={row['pr5_object_trie_seconds']:.3f}s  "
                f"csr-trie={row['csr_trie_seconds']:.3f}s  "
                f"speedup={row['speedup']:.2f}x"
            )
        print(f"tree family (WST+MWST) aggregate speedup over PR-5: {tree_speedup:.2f}x")
        for row in reload_rows:
            print(
                f"{row['kind']}: build={row['build_seconds']:.3f}s  "
                f"save={row['save_seconds']:.3f}s  load={row['load_seconds']:.3f}s  "
                f"reload-speedup={row['reload_speedup']:.1f}x"
            )
    failed = False
    if required is not None and (family_speedup is None or family_speedup < required):
        print(
            f"FAIL: monolithic minimizer family speedup {family_speedup:.2f}x "
            f"is below the required {required:g}x"
        )
        failed = True
    required_tree = arguments.require_tree_speedup
    if required_tree is None and arguments.length >= DEFAULT_LENGTH:
        required_tree = REQUIRED_TREE_SPEEDUP
    if required_tree is not None and (tree_speedup is None or tree_speedup < required_tree):
        print(
            f"FAIL: tree family speedup over the PR-5 path {tree_speedup:.2f}x "
            f"is below the required {required_tree:g}x"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
