"""Command-line interface: build indexes, run queries, inspect datasets, serve.

Installed as the ``repro-uncertain`` console script.  Ten sub-commands:

* ``info``        — Table 2-style characteristics of a named or PWM-file dataset;
* ``build``       — build an index (optionally sharded via ``--shards`` /
  ``--workers``) and report its statistics; ``--store FILE`` saves the built
  index to the binary index store, ``--store-dir DIR`` saves a sharded index
  as a per-shard directory store;
* ``query``       — answer patterns in any query mode (``--mode`` /
  ``--topk`` / ``--probs``); the index is either built on the spot or
  reloaded from a store with ``--store`` (no rebuild);
* ``query-batch`` — answer a whole pattern batch through the vectorised
  query planner (fanning out across shards for sharded indexes) and report
  throughput alongside the results;
* ``update``      — apply point or ranged updates (new per-position
  distributions, or ``{"start", "rows"}`` spans) to a stored index and
  persist the repair; directory stores rewrite only the dirty shards and
  append each batch to the store's ``update-log.jsonl``;
* ``compact``     — fold an updated directory store back to canonical
  generation-0 shard files (drops superseded ``.gN`` files, truncates the
  update log; query answers stay byte-identical); refuses to run on a
  store that fails verification — run ``recover`` first;
* ``verify-store`` — audit a store file or directory without modifying it:
  container and per-array checksums, torn write-ahead-log tails, committed
  but unapplied updates, leftover temp files; exit 1 when damage is found;
* ``recover``     — bring a directory store back to a consistent state
  after a crash: sweep temp files, truncate torn WAL tails, quarantine
  corrupt shards and fall back to intact siblings, replay committed
  updates (single-file stores are verified only — atomic writes leave
  them old-or-new, never torn);
* ``serve``       — a line-oriented stdin/stdout JSON query loop over a
  cached :class:`~repro.service.QueryService` (one request per line, one
  JSON response per line), including an ``update`` op with exact cache
  invalidation;
* ``serve-http``  — the same service behind a stdlib-only asyncio HTTP/1.1
  JSON API (``POST /query`` / ``/query/batch`` / ``/update``, ``GET
  /stats`` / ``/healthz`` / ``/metrics``) with cross-request
  micro-batching, per-client rate limiting, load shedding and
  Prometheus-format metrics.

``--json`` on the query sub-commands switches to a stable machine-readable
schema (positions, probabilities, timing, planner statistics); ``build
--json`` emits the ``repro.build.v1`` schema with the construction
wall-time and measured peak memory (tracemalloc + RSS).  Exit codes:
0 on success, 2 for malformed patterns (:class:`~repro.errors.PatternError`),
1 for every other usage error.

The CLI is intentionally small: it exposes the library's public API for shell
pipelines and smoke tests; programmatic users should import :mod:`repro`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc

from pathlib import Path

from .core.weighted_string import WeightedString
from .datasets.registry import DATASETS, dataset_characteristics, load_dataset
from .errors import PatternError, ReproError
from .indexes import INDEX_CLASSES, Query, QueryMode, QueryPlanner, build_index
from .io.pwm import read_pwm
from .io.store import (
    append_update_log,
    apply_updates_durably,
    compact_store,
    load_index,
    load_sharded_store,
    recover_sharded_store,
    save_index,
    save_sharded_store,
    verify_store,
)
from .service import QueryService
from .service.protocol import parse_updates, query_from_payload

__all__ = ["main", "build_parser"]


def _load_source(arguments) -> WeightedString:
    if arguments.pwm:
        return read_pwm(arguments.pwm)
    if arguments.dataset:
        return load_dataset(arguments.dataset, arguments.length)
    raise ReproError("either --pwm FILE or --dataset NAME must be given")


def _build_index(arguments):
    """Build the index a sub-command asked for (sharded when --shards is given)."""
    source = _load_source(arguments)
    if arguments.z is None:
        raise ReproError("--z is required when building an index")
    # serve-http reserves --workers for serving processes and renames the
    # shard-build parallelism flag to --build-workers.
    build_workers = (
        arguments.build_workers
        if hasattr(arguments, "build_workers")
        else arguments.workers
    )
    return build_index(
        source,
        arguments.z,
        kind=arguments.kind or "MWSA",
        ell=arguments.ell,
        shards=arguments.shards,
        workers=build_workers,
        max_pattern_len=arguments.max_pattern_len,
    )


#: Build options that contradict --store on the query sub-commands: a stored
#: index already fixes its source, threshold and construction parameters.
_BUILD_OPTIONS = (
    "dataset", "pwm", "length", "z", "ell", "kind", "shards", "workers",
    "max_pattern_len",
)


def _check_store_conflicts(arguments) -> None:
    """Reject build options alongside --store (the store fixes them all)."""
    names = [
        "build_workers"
        if name == "workers" and hasattr(arguments, "build_workers")
        else name
        for name in _BUILD_OPTIONS
    ]
    conflicting = [
        f"--{name.replace('_', '-')}"
        for name in names
        if getattr(arguments, name) is not None
    ]
    if conflicting:
        raise ReproError(
            f"--store loads a saved index; it cannot be combined with "
            f"build options ({', '.join(conflicting)})"
        )


def _load_store(path, *, mmap: bool = True):
    """Load a store path: a single-index file or a sharded store directory.

    ``mmap=False`` reads everything into RAM — required when the caller will
    rewrite the same file (writing over a live memory map is undefined).
    """
    if Path(path).is_dir():
        return load_sharded_store(path, mmap=mmap)
    return load_index(path, mmap=mmap)


def _obtain_index(arguments):
    """The index to query: reloaded from a store file, or built on the spot."""
    if arguments.store:
        _check_store_conflicts(arguments)
        return _load_store(arguments.store)
    return _build_index(arguments)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro-uncertain`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-uncertain",
        description="Space-efficient indexes for uncertain (weighted) strings.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="describe a dataset (Table 2 columns)")
    info.add_argument("--dataset", choices=sorted(DATASETS), help="named synthetic dataset")
    info.add_argument("--pwm", help="position-weight-matrix file to describe")
    info.add_argument("--length", type=int, help="override the dataset length")

    def add_build_arguments(
        sub, *, source_required: bool = True, build_workers_flag: bool = False
    ) -> None:
        group = sub.add_mutually_exclusive_group(required=source_required)
        group.add_argument("--dataset", choices=sorted(DATASETS), help="named synthetic dataset")
        group.add_argument("--pwm", help="position-weight-matrix file to index")
        sub.add_argument("--length", type=int, help="override the dataset length")
        sub.add_argument(
            "--z", type=float, required=source_required, help="threshold parameter (1/z)"
        )
        sub.add_argument("--ell", type=int, help="minimum pattern length (minimizer indexes)")
        sub.add_argument(
            "--kind",
            choices=sorted(INDEX_CLASSES),
            help="index kind to build (default: MWSA)",
        )
        sub.add_argument(
            "--shards", type=int, help="build a sharded index over this many chunks"
        )
        # serve-http uses --workers for serving processes, so its shard-build
        # parallelism flag is spelled --build-workers there.
        sub.add_argument(
            "--build-workers" if build_workers_flag else "--workers",
            dest="build_workers" if build_workers_flag else "workers",
            type=int,
            help="parallel shard-build processes (with --shards)",
        )
        sub.add_argument(
            "--max-pattern-len",
            type=int,
            help="largest query length a sharded index must support "
            "(sets the shard overlap; default: 2*ell)",
        )

    def add_query_mode_arguments(sub) -> None:
        sub.add_argument(
            "--mode",
            choices=[mode.value for mode in QueryMode],
            help="query mode (default: locate)",
        )
        sub.add_argument(
            "--topk", type=int, metavar="K",
            help="report the K most probable occurrences (implies --mode topk)",
        )
        sub.add_argument(
            "--probs", action="store_true",
            help="report occurrence probabilities (implies --mode locate_probs)",
        )
        sub.add_argument(
            "--json", action="store_true",
            help="machine-readable output: positions, probabilities, timing, "
            "planner statistics (stable schema)",
        )

    build = subparsers.add_parser("build", help="build an index and print its statistics")
    add_build_arguments(build)
    build.add_argument(
        "--store", help="save the built index to this binary index-store file"
    )
    build.add_argument(
        "--store-dir",
        help="save a sharded index as a directory store (one file per shard; "
        "enables dirty-shard refresh after updates)",
    )
    build.add_argument(
        "--json", action="store_true",
        help="machine-readable output (schema repro.build.v1): construction "
        "wall-time, measured peak memory (tracemalloc + RSS high-water "
        "mark), index statistics and store timings",
    )

    query = subparsers.add_parser(
        "query", help="answer patterns (building the index or loading it from a store)"
    )
    add_build_arguments(query, source_required=False)
    query.add_argument(
        "--store", help="load the index from this store file instead of building"
    )
    add_query_mode_arguments(query)
    query.add_argument("patterns", nargs="+", help="patterns to locate (text over the alphabet)")

    batch = subparsers.add_parser(
        "query-batch",
        help="answer a pattern batch through the vectorised query planner",
    )
    add_build_arguments(batch, source_required=False)
    batch.add_argument(
        "--store", help="load the index from this store file instead of building"
    )
    add_query_mode_arguments(batch)
    batch.add_argument(
        "--patterns-file",
        help="file with one pattern per line (text over the alphabet)",
    )
    batch.add_argument(
        "--no-occurrences",
        action="store_true",
        help="report only counts and throughput, not the occurrence lists",
    )
    batch.add_argument(
        "patterns", nargs="*", help="patterns to locate (text over the alphabet)"
    )

    update = subparsers.add_parser(
        "update",
        help="apply point updates to a stored index (dirty shards only for "
        "directory stores)",
    )
    update.add_argument(
        "--store", required=True,
        help="index store to update: a single-index file or a sharded "
        "store directory",
    )
    update.add_argument(
        "--updates-file", help="JSON file with the update list"
    )
    update.add_argument(
        "--updates",
        help='inline JSON update list, e.g. '
        '\'[{"position": 3, "distribution": {"A": 0.7, "C": 0.3}}]\'',
    )
    update.add_argument(
        "--out",
        help="write the updated index here instead of back to --store "
        "(single-file stores only)",
    )

    compact = subparsers.add_parser(
        "compact",
        help="fold a sharded directory store back to canonical shard files "
        "(drops generation-stamped files, truncates the update log)",
    )
    compact.add_argument(
        "--store", required=True, help="sharded store directory to compact"
    )
    compact.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )

    verify = subparsers.add_parser(
        "verify-store",
        help="audit a store (file or directory) without modifying it: "
        "checksums, torn WAL tails, unapplied updates, temp leftovers",
    )
    verify.add_argument(
        "--store", required=True,
        help="index store to audit: a single-index file or a sharded "
        "store directory",
    )

    recover = subparsers.add_parser(
        "recover",
        help="bring a crashed directory store back to a consistent state "
        "(sweep temp files, truncate torn WAL tails, quarantine corrupt "
        "shards, replay committed updates)",
    )
    recover.add_argument(
        "--store", required=True,
        help="sharded store directory to recover (single-file stores are "
        "verified only: atomic writes leave them old-or-new, never torn)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="line-oriented JSON query loop over stdin/stdout (cached serving)",
    )
    add_build_arguments(serve, source_required=False)
    serve.add_argument(
        "--store", help="load the index from this store file instead of building"
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="LRU result-cache capacity (default: 1024 results)",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )

    serve_http = subparsers.add_parser(
        "serve-http",
        help="asyncio HTTP/1.1 JSON API over a cached QueryService "
        "(micro-batching, rate limiting, load shedding, /metrics)",
    )
    add_build_arguments(serve_http, source_required=False, build_workers_flag=True)
    serve_http.add_argument(
        "--store", help="load the index from this store file instead of building"
    )
    serve_http.add_argument(
        "--workers", type=int, default=1,
        help="serving worker processes over one shared memory-mapped store "
        "(default: 1 = in-process serving, no fork)",
    )
    serve_http.add_argument(
        "--cache-size", type=int, default=1024,
        help="LRU result-cache capacity (default: 1024 results)",
    )
    serve_http.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    serve_http.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_http.add_argument(
        "--port", type=int, default=8765,
        help="bind port (0 picks an ephemeral port; default: 8765)",
    )
    serve_http.add_argument(
        "--batch-window-ms", type=float, default=2.0,
        help="micro-batch collection window in milliseconds (default: 2)",
    )
    serve_http.add_argument(
        "--max-batch", type=int, default=64,
        help="most requests coalesced into one execution (default: 64)",
    )
    serve_http.add_argument(
        "--no-batching", action="store_true",
        help="answer each request individually (the baseline mode)",
    )
    serve_http.add_argument(
        "--queue-limit", type=int, default=256,
        help="admitted-request ceiling; beyond it requests are shed with "
        "HTTP 429 (default: 256)",
    )
    serve_http.add_argument(
        "--rate-limit", type=float, default=0.0,
        help="per-client token-bucket rate in requests/second (0 disables)",
    )
    serve_http.add_argument(
        "--burst", type=float,
        help="token-bucket burst capacity (default: the rate)",
    )
    serve_http.add_argument(
        "--request-timeout", type=float, default=10.0,
        help="per-request execution budget in seconds (default: 10)",
    )
    serve_http.add_argument(
        "--warm-log", metavar="FILE",
        help="warm the result cache from this pattern log before accepting "
        "traffic (one pattern per line, or JSON lines with a 'pattern' field)",
    )
    serve_http.add_argument(
        "--warm-top", type=int, metavar="K",
        help="warm at most the K most frequent patterns of --warm-log "
        "(default: the cache capacity)",
    )
    serve_http.add_argument(
        "--tenant-class", action="append", metavar="NAME=RATE[:BURST]",
        help="per-tenant quota class for the X-Tenant header (repeatable; "
        "class 'default' covers unknown tenants; RATE 0 = unlimited)",
    )

    return parser


def _command_info(arguments) -> dict:
    if arguments.pwm:
        source = read_pwm(arguments.pwm)
        return {
            "name": arguments.pwm,
            "length": len(source),
            "sigma": source.sigma,
            "delta_percent": 100.0 * source.delta,
        }
    if not arguments.dataset:
        raise ReproError("either --pwm FILE or --dataset NAME must be given")
    return dataset_characteristics(arguments.dataset, arguments.length)


def _command_build(arguments) -> dict:
    machine = getattr(arguments, "json", False)
    if machine:
        from .timing import collect_stages

        # --json is the measured report: run the build under tracemalloc so
        # the schema carries an exact Python-side peak, not just the
        # space-model accounting.  Stage timers are drained first so the
        # report covers only this build.
        collect_stages()
        tracemalloc.start()
    started = time.perf_counter()
    index = _build_index(arguments)
    wall_seconds = time.perf_counter() - started
    tracemalloc_peak = None
    if machine:
        _, tracemalloc_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    report = index.stats.as_dict()
    store_report: dict = {}
    if arguments.store:
        started = time.perf_counter()
        save_index(arguments.store, index)
        store_report["store"] = arguments.store
        store_report["store_seconds"] = time.perf_counter() - started
    if arguments.store_dir:
        from .indexes.sharded import ShardedIndex

        if not isinstance(index, ShardedIndex):
            raise ReproError("--store-dir needs a sharded build (use --shards)")
        started = time.perf_counter()
        save_sharded_store(arguments.store_dir, index)
        store_report["store_dir"] = arguments.store_dir
        store_report["store_dir_seconds"] = time.perf_counter() - started
    if machine:
        from .bench.measure import peak_rss_bytes
        from .timing import collect_stages

        return {
            "schema": "repro.build.v1",
            "build": {
                "wall_seconds": wall_seconds,
                "tracemalloc_peak_bytes": tracemalloc_peak,
                "peak_rss_bytes": peak_rss_bytes(),
                "stages": collect_stages(),
            },
            "index": report,
            **store_report,
        }
    report.update(store_report)
    return report


#: Normalize a JSON update list (shared with the HTTP API's /update route).
_parse_updates = parse_updates


def _command_update(arguments) -> dict:
    if bool(arguments.updates_file) == bool(arguments.updates):
        raise ReproError("give exactly one of --updates-file or --updates")
    if arguments.updates_file:
        try:
            with open(arguments.updates_file, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            raise ReproError(f"cannot read updates file: {error}") from error
        except json.JSONDecodeError as error:
            raise ReproError(f"invalid updates JSON: {error}") from error
    else:
        try:
            payload = json.loads(arguments.updates)
        except json.JSONDecodeError as error:
            raise ReproError(f"invalid updates JSON: {error}") from error
    updates = _parse_updates(payload)
    store_path = Path(arguments.store)
    sharded_dir = store_path.is_dir()
    if sharded_dir and arguments.out:
        raise ReproError(
            "--out applies to single-file stores; directory stores are "
            "refreshed in place (dirty shards only)"
        )
    # Read into RAM: the command rewrites store files it just loaded, which
    # must not race live memory maps of those same files.
    index = _load_store(arguments.store, mmap=False)
    started = time.perf_counter()
    if sharded_dir:
        # WAL-first durable path: commit the batch before rewriting shards,
        # so a crash at any point is rolled forward by ``recover``.
        update_report, outcome, _wal_start = apply_updates_durably(
            arguments.store, index, updates
        )
        report = update_report.as_dict()
        report["store"] = outcome
        report["store"]["path"] = arguments.store
        append_update_log(
            arguments.store,
            {
                "time": time.time(),
                "positions": report["positions"],
                "strategy": report["strategy"],
                "generations": index.generations,
                "rewritten": report["store"]["rewritten"],
            },
        )
    else:
        report = index.apply_updates(updates).as_dict()
        target = arguments.out or arguments.store
        save_index(target, index)
        report["store"] = {"path": target, "rewritten": "all"}
    report["store"]["seconds"] = time.perf_counter() - started
    return report


def _command_compact(arguments) -> dict:
    store_path = Path(arguments.store)
    if not store_path.is_dir():
        raise ReproError(
            "compact works on sharded directory stores; single-file stores "
            "have nothing to compact"
        )
    started = time.perf_counter()
    report = compact_store(store_path)
    report["path"] = arguments.store
    report["seconds"] = time.perf_counter() - started
    return report


def _command_verify_store(arguments) -> dict:
    report = verify_store(arguments.store)
    if not report["ok"]:
        # Print the full report before signalling failure so scripts can
        # both gate on the exit code and parse the damage list.
        print(json.dumps(report, indent=2, default=str))
        count = len(report["problems"])
        raise ReproError(
            f"store {arguments.store} failed verification "
            f"({count} problem{'s' if count != 1 else ''}; run `recover`)"
        )
    return report


def _command_recover(arguments) -> dict:
    store_path = Path(arguments.store)
    started = time.perf_counter()
    if not store_path.is_dir():
        # A single-file store written atomically is old-or-new, never torn;
        # recovery reduces to a verification pass.
        report = verify_store(store_path)
        if not report["ok"]:
            print(json.dumps(report, indent=2, default=str))
            raise ReproError(
                f"store {arguments.store} is corrupt and single-file stores "
                "have no WAL to roll forward; rebuild it from the source"
            )
        return {
            "schema": "repro.recover.v1",
            "path": arguments.store,
            "status": "clean",
            "seconds": time.perf_counter() - started,
        }
    _index, report = recover_sharded_store(store_path)
    report["schema"] = "repro.recover.v1"
    report["path"] = arguments.store
    report["seconds"] = time.perf_counter() - started
    return report


def _resolve_query_mode(arguments) -> tuple[str, int | None]:
    """The effective query mode and k from --mode / --topk / --probs."""
    mode = arguments.mode
    k = arguments.topk
    if k is not None:
        if mode not in (None, "topk"):
            raise ReproError(f"--topk cannot be combined with --mode {mode}")
        mode = "topk"
    elif mode == "topk":
        raise ReproError("--mode topk needs --topk K")
    if arguments.probs:
        if mode not in (None, "locate", "locate_probs"):
            raise ReproError(f"--probs cannot be combined with --mode {mode}")
        mode = "locate_probs"
    return mode or "locate", k


def _machine_report(index, mode: str, results, elapsed: float, **extra) -> dict:
    """The stable --json schema shared by ``query`` and ``query-batch``."""
    report = {
        "schema": "repro.query.v1",
        "mode": mode,
        "elapsed_seconds": elapsed,
        "index": {
            "name": index.stats.name,
            "z": index.z,
            "length": len(index.source),
        },
        "results": [result.as_dict() for result in results],
    }
    report.update(extra)
    return report


def _command_query(arguments) -> dict:
    index = _obtain_index(arguments)
    mode, k = _resolve_query_mode(arguments)
    queries = [Query(pattern, mode=mode, k=k) for pattern in arguments.patterns]
    started = time.perf_counter()
    results = index.query_many(queries)
    elapsed = time.perf_counter() - started
    if arguments.json:
        return _machine_report(index, mode, results, elapsed)
    report = {"index": index.stats.as_dict()}
    if mode == "locate":
        report["occurrences"] = {
            pattern: result.positions
            for pattern, result in zip(arguments.patterns, results)
        }
    else:
        report["mode"] = mode
        report["results"] = {
            pattern: result.as_dict()
            for pattern, result in zip(arguments.patterns, results)
        }
    return report


def _command_query_batch(arguments) -> dict:
    patterns = list(arguments.patterns)
    if arguments.patterns_file:
        try:
            with open(arguments.patterns_file, "r", encoding="utf-8") as handle:
                patterns.extend(line.strip() for line in handle if line.strip())
        except OSError as error:
            raise ReproError(f"cannot read patterns file: {error}") from error
    if not patterns:
        raise ReproError("no patterns given (positional or --patterns-file)")
    index = _obtain_index(arguments)
    mode, k = _resolve_query_mode(arguments)
    planner = QueryPlanner(index)
    started = time.perf_counter()
    results = planner.execute([Query(pattern, mode=mode, k=k) for pattern in patterns])
    elapsed = time.perf_counter() - started
    stats = planner.last_stats
    throughput = {
        "patterns": stats.get("patterns", len(patterns)),
        "unique_patterns": stats.get("unique_patterns", len(patterns)),
        "strategy": stats.get("strategy"),
        "total_occurrences": sum(result.count or 0 for result in results),
        "elapsed_seconds": elapsed,
        "patterns_per_second": len(patterns) / elapsed if elapsed > 0 else None,
    }
    if arguments.json:
        return _machine_report(index, mode, results, elapsed, **throughput)
    report = {"index": index.stats.as_dict(), **throughput}
    if not arguments.no_occurrences:
        if mode == "locate":
            report["occurrences"] = {
                pattern: result.positions
                for pattern, result in zip(patterns, results)
            }
        else:
            report["mode"] = mode
            report["results"] = {
                pattern: result.as_dict()
                for pattern, result in zip(patterns, results)
            }
    return report


def _serve_request(service: QueryService, line: str) -> dict:
    """Answer one line of the serve protocol (never raises for bad requests)."""
    try:
        if line == "stats":
            return {"stats": service.stats()}
        if line.startswith("{"):
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                raise ReproError(f"invalid JSON request: {error}") from error
            if not isinstance(request, dict):
                raise ReproError("a JSON request must be an object")
            if request.get("cmd") == "stats":
                return {"stats": service.stats()}
            if request.get("cmd") == "update":
                if "pattern" in request:
                    raise ReproError(
                        "an update request cannot also carry a 'pattern'; "
                        "send the query as its own line"
                    )
                return {"update": service.update(_parse_updates(request.get("updates")))}
            if "updates" in request:
                # Mutation must be explicit: a stray 'updates' field on a
                # query request must not silently rewrite the index.
                raise ReproError(
                    "updates need an explicit '\"cmd\": \"update\"' request"
                )
            query = query_from_payload(request)
        else:
            query = Query(line)
        started = time.perf_counter()
        # Per-request provenance, not a global hit-counter delta: a delta of
        # service.hits misattributes hits as soon as two requests are in
        # flight (the HTTP layer's normal operating mode).
        results, origins = service.query_many([query], provenance=True)
        micros = 1e6 * (time.perf_counter() - started)
        response = results[0].as_dict()
        response["cached"] = origins[0] != "miss"
        response["micros"] = round(micros, 3)
        return response
    except (ReproError, TypeError, ValueError) as error:
        # TypeError/ValueError cover structurally broken requests (wrong
        # field types, unhashable patterns): a serving loop must survive any
        # input line, not just well-typed-but-invalid ones.
        return {"error": str(error), "request": line}


def _command_serve(arguments) -> None:
    """The stdin/stdout serving loop (one JSON response line per request line).

    Protocol: a bare line is a ``locate`` query for that pattern; a JSON
    object line may carry ``pattern`` / ``mode`` / ``k`` / ``z`` / ``zs``
    fields (or ``{"cmd": "stats"}``); the literal line ``stats`` reports the
    service counters.  ``{"cmd": "update", "updates": [{"position": ...,
    "distribution": {...}}]}`` applies point updates through the service —
    the index repairs itself (dirty shards / localized leaf re-derivation)
    and exactly the affected cache entries are invalidated.  Malformed
    requests produce an ``{"error": ...}`` line and the loop continues.  On
    end of input a final ``{"stats": ...}`` line is emitted.
    """
    index = _obtain_index(arguments)
    service = QueryService(
        index,
        cache_size=arguments.cache_size,
        cache_enabled=not arguments.no_cache,
    )
    stdout = sys.stdout

    def emit(payload) -> bool:
        """Write and flush one response line; False when the pipe is gone.

        A downstream consumer that exits early (``head``, a crashed client)
        closes our stdout: the loop must stop cleanly (exit code 0), not
        traceback on ``BrokenPipeError`` / a closed file.
        """
        try:
            stdout.write(json.dumps(payload) + "\n")
            stdout.flush()
            return True
        except (BrokenPipeError, ValueError):
            return False

    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        if not emit(_serve_request(service, line)):
            _silence_broken_stdout()
            return None  # skip the final stats line: nobody is reading
    emit({"stats": service.stats()})
    return None


class _StartupTerminated(Exception):
    """SIGTERM/SIGINT arrived while serve-http was still starting up."""


def _parse_tenant_classes(specs) -> dict | None:
    """``NAME=RATE[:BURST]`` specs → ``{name: (rate, burst)}`` quota classes."""
    if not specs:
        return None
    classes: dict[str, tuple[float, float]] = {}
    for spec in specs:
        name, separator, tail = spec.partition("=")
        name = name.strip()
        if not name or not separator:
            raise ReproError(
                f"invalid --tenant-class {spec!r} (expected NAME=RATE[:BURST])"
            )
        rate_text, _, burst_text = tail.partition(":")
        try:
            rate = float(rate_text)
            burst = float(burst_text) if burst_text else max(1.0, rate)
        except ValueError as error:
            raise ReproError(f"invalid --tenant-class {spec!r}: {error}") from error
        classes[name] = (rate, burst)
    return classes


def _load_warm_patterns(path) -> list:
    """Patterns from a warm log: bare lines, or JSON lines with a pattern.

    A JSON object line contributes its ``"pattern"`` field (the shape access
    logs capture); a JSON array line is a list-form weighted pattern.  A warm
    log is advisory, so malformed JSON lines are skipped, not fatal.
    """
    patterns: list = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                if line[0] in "[{":
                    try:
                        payload = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(payload, dict):
                        payload = payload.get("pattern")
                    if payload is not None:
                        patterns.append(payload)
                else:
                    patterns.append(line)
    except OSError as error:
        raise ReproError(f"cannot read warm log: {error}") from error
    return patterns


def _serve_http_cluster(arguments, tenant_classes, warm_patterns, ready) -> None:
    """The prefork multi-worker path of ``serve-http`` (``--workers > 1``).

    The supervisor needs a store on disk that every worker can memory-map:
    ``--store`` is used as-is; otherwise the index is built once here, saved
    to a temporary store, and the temporary files are removed on exit.
    """
    import shutil
    import tempfile

    from .service.supervisor import Supervisor

    temp_dir = None
    try:
        if arguments.store:
            _check_store_conflicts(arguments)
            store_path = arguments.store
        else:
            index = _build_index(arguments)
            temp_dir = tempfile.mkdtemp(prefix="repro-serve-")
            from .indexes.sharded import ShardedIndex

            if isinstance(index, ShardedIndex):
                store_path = os.path.join(temp_dir, "store")
                save_sharded_store(store_path, index)
            else:
                store_path = os.path.join(temp_dir, "index.store")
                save_index(store_path, index)
            # The supervisor reloads from the store (mmap) so workers share
            # pages; the built copy would only double the supervisor's RSS.
            del index
        supervisor = Supervisor(
            store_path,
            workers=arguments.workers,
            host=arguments.host,
            port=arguments.port,
            service_options={
                "cache_size": arguments.cache_size,
                "cache_enabled": not arguments.no_cache,
            },
            server_options={
                "batch_window": arguments.batch_window_ms / 1000.0,
                "max_batch": arguments.max_batch,
                "batching": not arguments.no_batching,
                "queue_limit": arguments.queue_limit,
                "rate": arguments.rate_limit,
                "burst": arguments.burst,
                "request_timeout": arguments.request_timeout,
                "tenant_classes": tenant_classes,
            },
            warm_patterns=warm_patterns,
            warm_top=arguments.warm_top,
            ready=ready,
        )
        status = supervisor.run()
        if status:
            raise SystemExit(status)
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
    return None


def _command_serve_http(arguments) -> None:
    """The asyncio HTTP serving loop (see :mod:`repro.service.server`).

    Prints one ``serving on http://host:port`` line once the socket is
    bound (the CI smoke test waits for it), then serves until SIGINT /
    SIGTERM; shutdown flushes the pending micro-batch and drains in-flight
    requests before exiting.  ``--workers N`` (N > 1) switches to the
    prefork supervisor of :mod:`repro.service.supervisor`: one process binds
    the socket and owns the store, N forked workers memory-map it and serve.
    """
    import asyncio
    import signal

    from .service.server import run_server

    tenant_classes = _parse_tenant_classes(arguments.tenant_class)
    warm_patterns = (
        _load_warm_patterns(arguments.warm_log) if arguments.warm_log else None
    )

    def ready(host: str, port: int) -> None:
        print(f"serving on http://{host}:{port}", flush=True)

    # Index loading can take a while; a SIGTERM/SIGINT that lands before the
    # event loop (or the supervisor) installs its own handlers must still
    # exit 0 cleanly.  Install raising handlers for the whole startup window
    # and translate them into a quiet return.
    def _terminated(signum, frame):
        raise _StartupTerminated

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _terminated)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass

    try:
        if arguments.workers and arguments.workers > 1:
            return _serve_http_cluster(arguments, tenant_classes, warm_patterns, ready)
        index = _obtain_index(arguments)
        service = QueryService(
            index,
            cache_size=arguments.cache_size,
            cache_enabled=not arguments.no_cache,
        )
        if warm_patterns:
            service.warm(warm_patterns, top=arguments.warm_top)
        asyncio.run(
            run_server(
                service,
                host=arguments.host,
                port=arguments.port,
                ready=ready,
                batch_window=arguments.batch_window_ms / 1000.0,
                max_batch=arguments.max_batch,
                batching=not arguments.no_batching,
                queue_limit=arguments.queue_limit,
                rate=arguments.rate_limit,
                burst=arguments.burst,
                request_timeout=arguments.request_timeout,
                tenant_classes=tenant_classes,
            )
        )
    except (KeyboardInterrupt, _StartupTerminated):
        pass  # terminated during startup or serving: a clean exit, not an error
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
    return None


def _silence_broken_stdout() -> None:
    """Point the broken stdout at devnull so interpreter exit stays quiet.

    CPython flushes ``sys.stdout`` during shutdown; after a broken pipe that
    flush would print an ignored-exception message and flip the exit status.
    """
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (OSError, ValueError, AttributeError):
        pass  # stdout is not a real file descriptor (tests, embedding)


def main(argv=None) -> int:
    """Entry point of the ``repro-uncertain`` console script."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handlers = {
        "info": _command_info,
        "build": _command_build,
        "query": _command_query,
        "query-batch": _command_query_batch,
        "update": _command_update,
        "compact": _command_compact,
        "verify-store": _command_verify_store,
        "recover": _command_recover,
        "serve": _command_serve,
        "serve-http": _command_serve_http,
    }
    try:
        result = handlers[arguments.command](arguments)
    except PatternError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if result is not None:
        print(json.dumps(result, indent=2, default=str))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
