"""QueryService throughput — cached serving vs the uncached planner path.

Not a paper figure: this benchmark tracks the serving layer.  The workload
is a Zipf-skewed request stream (the shape of production query traffic: a
few hot patterns dominate) over a pool of valid and random patterns; the
timed payloads answer every request through a
:class:`~repro.service.QueryService` with the LRU result cache

* ``off`` — every request runs the full query planner;
* ``on``  — repeated requests are served from the cache.

The standalone runner verifies that both configurations answer identically,
that the cache hit rate is positive, and that the cached run is faster on
the skewed mix.  Run standalone; CI uses tiny parameters as a smoke test::

    python benchmarks/bench_query_service.py --length 600 --requests 300
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"
if str(SOURCE_ROOT) not in sys.path:  # allow running without installation
    sys.path.insert(0, str(SOURCE_ROOT))

from repro.datasets.patterns import (
    sample_random_patterns,
    sample_valid_patterns,
    sample_zipf_workload,
)
from repro.datasets.synthetic import sparse_uncertainty_string
from repro.indexes import build_index
from repro.service import QueryService

DEFAULT_LENGTH = 4_000
DEFAULT_UNIQUE = 100
DEFAULT_REQUESTS = 2_000
DEFAULT_Z = 8.0
DEFAULT_ELL = 16
DEFAULT_ZIPF_S = 1.2
DEFAULT_KIND = "MWSA"


def make_workload(length: int, unique: int, requests: int, z: float, ell: int,
                  zipf_s: float):
    """The synthetic source and a Zipf-skewed request stream over a mixed pool."""
    source = sparse_uncertainty_string(length, 4, delta=0.1, seed=11)
    valid_count = (7 * unique) // 10
    pool = sample_valid_patterns(source, z, m=ell, count=valid_count, seed=1)
    pool += sample_random_patterns(source, m=ell, count=unique - valid_count, seed=2)
    stream = sample_zipf_workload(pool, requests, s=zipf_s, seed=7)
    return source, pool, stream


def run_stream(service: QueryService, requests) -> list:
    return [service.query(pattern) for pattern in requests]


def main(argv=None) -> int:
    """Standalone cache-off-vs-on comparison (prints qps and hit rate)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    parser.add_argument("--unique", type=int, default=DEFAULT_UNIQUE)
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    parser.add_argument("--z", type=float, default=DEFAULT_Z)
    parser.add_argument("--ell", type=int, default=DEFAULT_ELL)
    parser.add_argument("--zipf-s", type=float, default=DEFAULT_ZIPF_S)
    parser.add_argument("--kind", default=DEFAULT_KIND)
    parser.add_argument("--json", metavar="FILE",
                        help="write the measured rows (with run metadata) to FILE")
    arguments = parser.parse_args(argv)

    source, pool, stream = make_workload(
        arguments.length, arguments.unique, arguments.requests,
        arguments.z, arguments.ell, arguments.zipf_s,
    )
    index = build_index(source, arguments.z, kind=arguments.kind, ell=arguments.ell)
    print(
        f"workload: n={len(source)}, z={arguments.z:g}, ell={arguments.ell}, "
        f"kind={arguments.kind}, {len(stream)} requests over {len(pool)} "
        f"patterns (zipf s={arguments.zipf_s:g})"
    )

    rows = []
    answers = {}
    for cache in ("off", "on"):
        service = QueryService(
            index, cache_size=2 * len(pool), cache_enabled=(cache == "on")
        )
        run_stream(service, stream[:5])  # warm library caches outside the timer
        service.reset_stats()
        service.clear_cache()
        started = time.perf_counter()
        results = run_stream(service, stream)
        elapsed = time.perf_counter() - started
        stats = service.stats()
        answers[cache] = [result.positions for result in results]
        qps = len(stream) / elapsed
        rows.append(
            {"cache": cache, "elapsed_seconds": elapsed, "queries_per_second": qps,
             "hit_rate": stats["hit_rate"], "evictions": stats["evictions"]}
        )
        print(
            f"cache {cache}: {qps:,.0f} queries/s, "
            f"hit rate {stats['hit_rate']:.1%}, {stats['evictions']} evictions"
        )

    if answers["on"] != answers["off"]:
        print("MISMATCH between cached and uncached results")
        return 1
    off, on = rows[0], rows[1]
    print(f"speedup with cache: {on['queries_per_second'] / off['queries_per_second']:.1f}x")
    if on["hit_rate"] <= 0.0:
        print("FAIL: the skewed mix produced no cache hits")
        return 1
    if on["queries_per_second"] <= off["queries_per_second"]:
        print("FAIL: the cached run was not faster on the skewed mix")
        return 1
    if arguments.json:
        from repro.bench.metadata import run_metadata

        payload = {"metadata": run_metadata(), "rows": rows,
                   "workload": {"n": len(source), "requests": len(stream),
                                "unique_patterns": len(pool),
                                "zipf_s": arguments.zipf_s}}
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {arguments.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
