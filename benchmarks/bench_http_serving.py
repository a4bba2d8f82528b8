"""HTTP serving throughput — micro-batching on vs off under concurrency.

Not a paper figure: this benchmark tracks the asyncio serving layer
(:mod:`repro.service.server`).  Closed-loop clients drive ``POST /query``
over real localhost sockets with a Zipf-skewed pattern stream (the shape of
production traffic), at several concurrency levels, in two configurations:

* ``batching off`` — every request is answered individually (the baseline);
* ``batching on``  — concurrent requests coalesce into one ``query_many``
  execution per micro-batch window, so singleton HTTP requests get the
  vectorized batch path and in-batch deduplication.

The result cache is disabled in both configurations: the comparison
isolates what *micro-batching* buys, not what the LRU cache buys (that is
the ``servemix`` experiment of ``python -m repro.bench``).  The standalone
runner reports throughput and p50/p99 latency (nearest-rank quantiles of the
raw per-request samples) per row, asserts that micro-batching wins by at least
``--min-speedup`` (default 2x) at the highest concurrency level, and
finishes with a graceful-shutdown drain check: requests parked in an open
batch window when ``shutdown()`` is called must all be answered, none
dropped or errored.

Run standalone, or at smoke scale for CI (skips the speedup floor — tiny
runs are noise-dominated)::

    python benchmarks/bench_http_serving.py
    python benchmarks/bench_http_serving.py --smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import deque
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
from repro.service.client import AsyncHttpClient
from repro.service.server import HttpServer

DEFAULT_LENGTH = 16_000
DEFAULT_UNIQUE = 100
DEFAULT_REQUESTS = 800
DEFAULT_Z = 8.0
DEFAULT_ELL = 16
DEFAULT_ZIPF_S = 1.2
DEFAULT_KIND = "MWSA"
DEFAULT_CONCURRENCY = (8, 32)
DEFAULT_WINDOW_MS = 2.0
# Sized to the top concurrency level: a full batch flushes immediately
# instead of waiting out the window remainder.
DEFAULT_MAX_BATCH = 32
DEFAULT_MIN_SPEEDUP = 2.0
DEFAULT_WORKER_LEVELS = (1, 2)
DEFAULT_MIN_SCALING = 1.7
#: Per-extra-worker *private* bytes in store-file mappings, as a fraction of
#: the store size.  A worker that truly serves from the shared map keeps its
#: private share near zero; copying the arrays would put it near 1.0.
DEFAULT_MAX_PRIVATE_FRACTION = 0.15


def make_workload(length: int, unique: int, requests: int, z: float, ell: int,
                  zipf_s: float):
    """The synthetic source and a Zipf-skewed request stream over a mixed pool."""
    source = sparse_uncertainty_string(length, 4, delta=0.1, seed=11)
    valid_count = (7 * unique) // 10
    pool = sample_valid_patterns(source, z, m=ell, count=valid_count, seed=1)
    pool += sample_random_patterns(source, m=ell, count=unique - valid_count, seed=2)
    stream = sample_zipf_workload(pool, requests, s=zipf_s, seed=7)
    return source, pool, stream


async def closed_loop(index, stream, concurrency: int, *, batching: bool,
                      window: float, max_batch: int) -> dict:
    """One timed run: ``concurrency`` clients drain the stream over HTTP."""
    service = QueryService(index, cache_enabled=False)
    server = HttpServer(
        service,
        batch_window=window,
        max_batch=max_batch,
        batching=batching,
        queue_limit=max(256, 4 * concurrency),
        request_timeout=60.0,
    )
    host, port = await server.start("127.0.0.1", 0)
    row = await drive_stream(host, port, stream, concurrency)
    batch_stats = server.server_stats()["batching"]
    await server.shutdown()
    return {
        "batching": batching,
        "concurrency": concurrency,
        **row,
        "mean_batch_size": round(batch_stats["mean_batch_size"], 2),
        "largest_batch": batch_stats["largest_batch"],
    }


async def drain_check(index, concurrency: int) -> dict:
    """Graceful shutdown: requests parked in an open window are all answered."""
    service = QueryService(index, cache_enabled=False)
    server = HttpServer(service, batch_window=30.0, max_batch=10_000)
    host, port = await server.start("127.0.0.1", 0)
    pattern = sample_valid_patterns(
        index.source, index.z, m=index.minimum_pattern_length, count=1, seed=3
    )[0]

    async def one_request() -> int:
        client = await AsyncHttpClient.connect(host, port)
        response = await client.request("POST", "/query", {"pattern": pattern})
        await client.close()
        return response.status

    tasks = [asyncio.create_task(one_request()) for _ in range(concurrency)]
    while server.server_stats()["inflight"] < concurrency:
        await asyncio.sleep(0.001)  # every request parked in the window
    report = await server.shutdown(drain=True)
    statuses = await asyncio.gather(*tasks)
    return {
        "inflight_at_shutdown": concurrency,
        "drained": report["drained"],
        "drain_expired": report["drain_expired"],
        "answered_ok": sum(1 for status in statuses if status == 200),
        "dropped_or_errored": sum(1 for status in statuses if status != 200),
    }


# -- multi-worker scaling over one shared memory-mapped store -----------------


def measured_cores() -> int:
    """CPU cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def store_mapping_bytes(pid: int, store_path: str) -> dict | None:
    """Resident-memory accounting of one process's store-file mappings.

    Walks ``/proc/<pid>/smaps`` and sums the entries whose backing path lies
    under ``store_path``.  This is the direct measurement behind the sharing
    claim: a worker serving from the shared map keeps the index pages
    file-backed and *clean* — every resident page lives once in the page
    cache, whichever worker faulted it first (the kernel labels a page
    ``Private_Clean`` until a second process touches it, so clean bytes are
    shared either way).  ``private_dirty`` is the copy signal: a worker that
    wrote (copy-on-write) into the map holds genuinely duplicated pages.
    """
    prefix = str(Path(store_path).resolve())
    totals = {"rss": 0, "private_dirty": 0, "clean": 0}
    in_store = False
    try:
        with open(f"/proc/{pid}/smaps", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                head = line.split(" ", 1)[0]
                if "-" in head and ":" not in head:
                    # a mapping header line: "addr-addr perms offset dev inode path"
                    fields = line.rstrip("\n").split(maxsplit=5)
                    in_store = len(fields) == 6 and fields[5].startswith(prefix)
                elif in_store:
                    name, _, rest = line.partition(":")
                    if name == "Rss":
                        totals["rss"] += int(rest.split()[0]) * 1024
                    elif name == "Private_Dirty":
                        totals["private_dirty"] += int(rest.split()[0]) * 1024
                    elif name in ("Private_Clean", "Shared_Clean"):
                        totals["clean"] += int(rest.split()[0]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return totals


def quantile(samples, q: float) -> float:
    """Nearest-rank quantile of the raw samples."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


async def drive_stream(host: str, port: int, stream, concurrency: int) -> dict:
    """Drain a request stream against an already-running server."""
    pending = deque(stream)
    latencies: list[float] = []
    errors = 0

    async def client_loop() -> None:
        nonlocal errors
        client = await AsyncHttpClient.connect(host, port)
        while True:
            try:
                pattern = pending.popleft()
            except IndexError:
                break
            started = time.perf_counter()
            response = await client.request("POST", "/query", {"pattern": pattern})
            latencies.append(time.perf_counter() - started)
            if response.status != 200:
                errors += 1
        await client.close()

    started = time.perf_counter()
    await asyncio.gather(*(client_loop() for _ in range(concurrency)))
    elapsed = time.perf_counter() - started
    return {
        "requests": len(stream),
        "errors": errors,
        "elapsed_seconds": elapsed,
        "requests_per_second": len(stream) / elapsed,
        "p50_ms": 1e3 * quantile(latencies, 0.5),
        "p99_ms": 1e3 * quantile(latencies, 0.99),
    }


def cluster_row(store_path: str, workers: int, stream, concurrency: int, *,
                window_ms: float, max_batch: int) -> dict:
    """One serve-http subprocess at ``--workers N``: throughput + memory."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve-http",
         "--store", store_path, "--workers", str(workers), "--port", "0",
         "--no-cache", "--batch-window-ms", str(window_ms),
         "--max-batch", str(max_batch), "--request-timeout", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        if not line.startswith("serving on http://"):
            raise RuntimeError(
                f"serve-http never came up: {proc.stderr.read()[-2000:]}"
            )
        address = line.split("http://", 1)[1]
        host, port_text = address.rsplit(":", 1)
        row = asyncio.run(drive_stream(host, int(port_text), stream, concurrency))
        row["workers"] = workers

        async def snapshot() -> dict:
            client = await AsyncHttpClient.connect(host, int(port_text))
            response = await client.request("GET", "/stats")
            await client.close()
            return response.json()

        stats = asyncio.run(snapshot())
        if workers > 1:
            pids = [int(pid) for pid in stats["supervisor"]["pids"].values()]
            row["store_bytes"] = stats["supervisor"]["store_bytes"]
            row["worker_memory"] = {
                str(number): snap.get("memory", {})
                for number, snap in stats.get("workers", {}).items()
            }
        else:
            pids = [proc.pid]
            row["store_bytes"] = sum(
                p.stat().st_size for p in
                ([Path(store_path)] if Path(store_path).is_file()
                 else Path(store_path).iterdir())
            )
        row["store_mappings"] = {
            str(pid): store_mapping_bytes(pid, store_path) for pid in pids
        }
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        if code != 0:
            raise RuntimeError(
                f"serve-http exited {code}: {proc.stderr.read()[-2000:]}"
            )
        return row
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def multi_worker_section(arguments, index, stream) -> tuple[list, dict] | None:
    """Scaling rows at each worker level plus the scaling/memory gates."""
    if not hasattr(os, "fork"):
        print("multi-worker: skipped (no os.fork on this platform)")
        return None
    from repro.io.store import save_index

    levels = sorted(set(arguments.workers_levels))
    concurrency = max(arguments.concurrency)
    rows = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as temp_dir:
        store_path = str(Path(temp_dir) / "index.store")
        save_index(store_path, index)
        # Flush writeback first: pages of a just-written file sit dirty in
        # the page cache, and a mapping of a dirty page is accounted as
        # Private_Dirty in smaps — which would masquerade as copy-on-write.
        os.sync()
        for workers in levels:
            row = cluster_row(
                store_path, workers, stream, concurrency,
                window_ms=arguments.batch_window_ms,
                max_batch=arguments.max_batch,
            )
            rows.append(row)
            print(
                f"workers {workers}: {row['requests_per_second']:>8,.0f} req/s, "
                f"p50 {row['p50_ms']:.2f} ms, p99 {row['p99_ms']:.2f} ms, "
                f"errors {row['errors']}"
            )

    cores = measured_cores()
    single = next(r for r in rows if r["workers"] == min(levels))
    top = next(r for r in rows if r["workers"] == max(levels))
    speedup = top["requests_per_second"] / single["requests_per_second"]
    enforced = cores >= max(levels) and not arguments.smoke
    gates = {
        "cores": cores,
        "speedup": round(speedup, 3),
        "min_scaling": arguments.min_scaling,
        "scaling_enforced": enforced,
        "scaling_skip_reason": None if enforced else (
            "smoke run" if arguments.smoke
            else f"only {cores} core(s) measured; {max(levels)} workers "
            "cannot run in parallel"
        ),
        "max_private_fraction": DEFAULT_MAX_PRIVATE_FRACTION,
        "private_fractions": {},
    }
    print(
        f"multi-worker scaling {min(levels)}->{max(levels)}: {speedup:.2f}x "
        f"({'enforced' if enforced else 'recorded, not enforced: ' + str(gates['scaling_skip_reason'])})"
    )
    # The memory gate holds on any core count: every worker must really map
    # the store (resident pages in the file mappings) and must not have
    # copy-on-write'd into it — dirty private pages are the only bytes that
    # physically duplicate the index per worker.
    store_bytes = max(1, top["store_bytes"])
    for pid, mapping in (top.get("store_mappings") or {}).items():
        if mapping is None:
            continue
        fraction = mapping["private_dirty"] / store_bytes
        gates["private_fractions"][pid] = round(fraction, 4)
        gates.setdefault("mapped_pids", []).append(pid)
        print(
            f"  worker pid {pid}: store mappings rss={mapping['rss']:,} B, "
            f"clean={mapping['clean']:,} B, "
            f"private_dirty={mapping['private_dirty']:,} B "
            f"({100 * fraction:.1f}% of the {store_bytes:,} B store)"
        )
        if mapping["rss"] == 0:
            print(f"  WARNING: pid {pid} has no resident store pages")
    return rows, gates


def durability_section(index, repeats: int = 5) -> dict:
    """The checksum tax on the load path: reload with verify off vs on.

    Saves the benchmark index to a throwaway store and times full RAM
    reloads with array verification disabled and enabled (best of
    ``repeats``, interleaved so cache state is comparable).  The overhead
    ratio feeds the regression gate in ``check_regression.py serving``.
    """
    from repro.io.store import load_index, save_index

    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "durability.idx")
        save_index(path, index)
        size = os.path.getsize(path)
        best = {False: float("inf"), True: float("inf")}
        for verify in (False, True):  # warm the page cache and code paths
            load_index(path, mmap=False, verify=verify)
        for _ in range(repeats):
            for verify in (False, True):
                started = time.perf_counter()
                load_index(path, mmap=False, verify=verify)
                best[verify] = min(best[verify], time.perf_counter() - started)
    off, on = best[False], best[True]
    return {
        "store_bytes": size,
        "reload_seconds_verify_off": off,
        "reload_seconds_verify_on": on,
        "verify_overhead_ratio": (on - off) / off if off > 0 else 0.0,
    }


def main(argv=None) -> int:
    """Standalone batching-off-vs-on comparison over real sockets."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    parser.add_argument("--unique", type=int, default=DEFAULT_UNIQUE)
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    parser.add_argument("--z", type=float, default=DEFAULT_Z)
    parser.add_argument("--ell", type=int, default=DEFAULT_ELL)
    parser.add_argument("--zipf-s", type=float, default=DEFAULT_ZIPF_S)
    parser.add_argument("--kind", default=DEFAULT_KIND)
    parser.add_argument("--concurrency", type=int, nargs="+",
                        default=list(DEFAULT_CONCURRENCY))
    parser.add_argument("--batch-window-ms", type=float, default=DEFAULT_WINDOW_MS)
    parser.add_argument("--max-batch", type=int, default=DEFAULT_MAX_BATCH)
    parser.add_argument("--min-speedup", type=float, default=DEFAULT_MIN_SPEEDUP,
                        help="required batching-on/off speedup at the highest "
                        "concurrency level")
    parser.add_argument("--workers-levels", type=int, nargs="+",
                        default=list(DEFAULT_WORKER_LEVELS),
                        help="serve-http --workers levels for the scaling rows")
    parser.add_argument("--min-scaling", type=float, default=DEFAULT_MIN_SCALING,
                        help="required multi-worker throughput speedup (only "
                        "enforced when enough cores are measured)")
    parser.add_argument("--no-cluster", action="store_true",
                        help="skip the multi-worker subprocess rows")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI run: skips the speedup floor (noise-"
                        "dominated at this scale), keeps every correctness check")
    parser.add_argument("--json", metavar="FILE",
                        help="write the measured rows (with run metadata) to FILE")
    arguments = parser.parse_args(argv)

    if arguments.smoke:
        arguments.length = min(arguments.length, 1_200)
        arguments.requests = min(arguments.requests, 300)
        arguments.concurrency = [8]

    source, pool, stream = make_workload(
        arguments.length, arguments.unique, arguments.requests,
        arguments.z, arguments.ell, arguments.zipf_s,
    )
    index = build_index(source, arguments.z, kind=arguments.kind, ell=arguments.ell)
    print(
        f"workload: n={len(source)}, z={arguments.z:g}, ell={arguments.ell}, "
        f"kind={arguments.kind}, {len(stream)} requests over {len(pool)} "
        f"patterns (zipf s={arguments.zipf_s:g}), cache disabled"
    )

    rows = []
    for concurrency in arguments.concurrency:
        for batching in (False, True):
            row = asyncio.run(
                closed_loop(
                    index, stream, concurrency, batching=batching,
                    window=arguments.batch_window_ms / 1e3,
                    max_batch=arguments.max_batch,
                )
            )
            rows.append(row)
            mode = "on " if batching else "off"
            print(
                f"concurrency {concurrency:>3}, batching {mode}: "
                f"{row['requests_per_second']:>8,.0f} req/s, "
                f"p50 {row['p50_ms']:.2f} ms, p99 {row['p99_ms']:.2f} ms, "
                f"mean batch {row['mean_batch_size']}, "
                f"largest {row['largest_batch']}"
            )
            if row["errors"]:
                print(f"FAIL: {row['errors']} non-200 responses")
                return 1

    top = max(arguments.concurrency)
    off = next(r for r in rows
               if r["concurrency"] == top and not r["batching"])
    on = next(r for r in rows if r["concurrency"] == top and r["batching"])
    speedup = on["requests_per_second"] / off["requests_per_second"]
    print(f"micro-batching speedup at concurrency {top}: {speedup:.1f}x")
    if not arguments.smoke and speedup < arguments.min_speedup:
        print(
            f"FAIL: micro-batching must be at least {arguments.min_speedup:g}x "
            f"the per-request baseline at concurrency {top}"
        )
        return 1

    drain = asyncio.run(drain_check(index, max(8, top)))
    print(
        f"graceful shutdown: {drain['answered_ok']}/{drain['inflight_at_shutdown']} "
        f"in-flight requests answered, {drain['dropped_or_errored']} dropped"
    )
    if drain["dropped_or_errored"] or drain["drain_expired"]:
        print("FAIL: graceful shutdown dropped or errored in-flight requests")
        return 1

    durability = durability_section(index)
    print(
        f"durability: reload verify-off "
        f"{durability['reload_seconds_verify_off'] * 1e3:.1f} ms, verify-on "
        f"{durability['reload_seconds_verify_on'] * 1e3:.1f} ms "
        f"({durability['verify_overhead_ratio']:+.1%} overhead over a "
        f"{durability['store_bytes']:,}-byte store)"
    )

    cluster_rows: list = []
    cluster_gates: dict = {}
    if not arguments.no_cluster:
        section = multi_worker_section(arguments, index, stream)
        if section is not None:
            cluster_rows, cluster_gates = section
            if any(row["errors"] for row in cluster_rows):
                print("FAIL: multi-worker rows saw non-200 responses")
                return 1
            if (cluster_gates["scaling_enforced"]
                    and cluster_gates["speedup"] < arguments.min_scaling):
                print(
                    f"FAIL: {max(arguments.workers_levels)} workers must be at "
                    f"least {arguments.min_scaling:g}x one worker on "
                    f"{cluster_gates['cores']} cores"
                )
                return 1
            over = {
                pid: fraction
                for pid, fraction in cluster_gates["private_fractions"].items()
                if fraction > DEFAULT_MAX_PRIVATE_FRACTION
            }
            if over:
                print(
                    f"FAIL: worker copy-on-write share of the store mappings "
                    f"exceeds {DEFAULT_MAX_PRIVATE_FRACTION:.0%}: {over} — the "
                    "index is being copied, not shared"
                )
                return 1

    if arguments.json:
        from repro.bench.metadata import run_metadata

        payload = {"metadata": run_metadata(), "rows": rows, "drain": drain,
                   "durability": durability,
                   "cluster_rows": cluster_rows, "cluster_gates": cluster_gates,
                   "workload": {"n": len(source), "requests": len(stream),
                                "unique_patterns": len(pool),
                                "zipf_s": arguments.zipf_s,
                                "batch_window_ms": arguments.batch_window_ms,
                                "max_batch": arguments.max_batch,
                                "smoke": bool(arguments.smoke)}}
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {arguments.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
