"""The measured work of one run: builds, batch queries, launches, HTTP reads, updates.

Every operation goes through the program's public entry points (library
build, store and query calls; ``serve-http`` over sockets), every timed
answer is checked, and attempted and failed operations are counted per
phase.  Phases never overlap.

On a shared 2-vCPU VM the host's speed drifts by up to 2x for tens of
seconds at a time, so every timing is guarded twice:

* No metric comes from one stretch of time.  After a first build and server
  launch, the run repeats rounds of (build, batch slices, server launch,
  read block), and each metric is the median of its samples over all
  rounds.
* Each sample is scaled to a nominal host speed, from the CPU time of a
  reference kernel probed just before and after it (see
  ``spans.Reference``).  Over 10-run sets taken minutes apart, medians
  scaled this way moved by 1-7% where raw ones moved by 10-45%.  Raw
  values, speeds and the steal time of each sample's interval are kept in
  the detail record.

In a traced run, odd rounds run with tracing on, so the tracing overhead is
measured within the same run.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import shutil
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

import repro.indexes.minimizer_core as minimizer_core
import repro.indexes.mwst as mwst
from repro.core.numerics import solid_probability_mask
from repro.core.weighted_string import WeightedString
from repro.indexes import Query, QueryPlanner, affected_pattern_starts, build_index
from repro.io.store import (
    apply_updates_durably,
    load_index,
    load_sharded_store,
    save_index,
    save_sharded_store,
    verify_store,
)
from repro.service import QueryService

from inputs import Inputs, lru_hit_rate
from serve import Connection, ServerProcess, server_pids, summed_stats
from spans import CLOCK_TICKS, Conditions, Reference, Tracer, process_cpu_s, steal_ticks

#: Rounds of (build, batch slices, launch, read block) after the first build.
ROUNDS = 4
#: Patterns per ``query_many`` slice.
SLICE = 500
#: Batch answers checked against the brute-force oracle per run.
BATCH_CHECKS = 12
#: Untimed warm-up requests before the first read block.
WARMUP_REQUESTS = 800
#: Share of ``--seconds`` spent in read blocks, and loops per block.
READ_SHARE = 0.6
READ_SPLIT = 3
#: Closed-loop HTTP connections.
CONNECTIONS = 2
#: Requests replayed in-process through a cached QueryService (traced runs).
REPLAY_REQUESTS = 4_000


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def quantile(values, q: float) -> float:
    """Exact quantile of the raw samples (nearest rank)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else float("nan")


def store_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())
    return path.stat().st_size


def index_counts(index) -> dict:
    """Leaves, estimation entries and index bytes, summed over shards."""
    parts = getattr(index, "shard_indexes", None) or [index]
    counts = {"leaves": 0, "estimation_entries": 0, "index_size_bytes": 0}
    for part in parts:
        stats = part.stats.as_dict()
        counts["leaves"] += stats.get("forward_leaves", 0) + stats.get("backward_leaves", 0)
        counts["estimation_entries"] += stats.get("estimation_entries", 0)
        counts["index_size_bytes"] += stats.get("index_size_bytes", 0)
    return counts


def expand_updates(batch: list[dict]) -> list[tuple[int, list[float]]]:
    pairs = []
    for entry in batch:
        if "start" in entry:
            pairs.extend((entry["start"] + k, row) for k, row in enumerate(entry["rows"]))
        else:
            pairs.append((entry["position"], entry["distribution"]))
    return pairs


class Run:
    """State shared by the phases of one run."""

    def __init__(
        self, root: Path, inputs: Inputs, traced: bool, workdir: Path, seconds: float
    ) -> None:
        self.root = root
        self.inputs = inputs
        self.workload = inputs.workload
        self.traced = traced
        self.tracer = Tracer(False)
        self.conditions = Conditions()
        self.workdir = workdir
        self.seconds = seconds
        self.store = workdir / ("store" if self.workload.shards else "index.store")
        self.warm_log = workdir / "warm.log"
        self.samples: dict[str, list[dict]] = {}  # see sample()
        self.reference = Reference()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        # The share of the request stream a 1,024-entry LRU cache would serve.
        self.details: dict = {"fingerprints": inputs.fingerprints,
                              "simulated_lru_hit_rate": lru_hit_rate(inputs.stream[:20_000], 1_024)}
        self.expected: dict[int, dict] = {}  # pool index -> in-process answer
        self.versions: list[WeightedString] = [inputs.source]  # string after g batches
        self.updated_upto: list[list[int]] = [[]]  # positions touched by batches 1..g
        self.records: list = []  # (pool index, status, body, start, end, traced)
        self.read_cpu = {"server": 0.0, "client": 0.0}
        self.intervals: list[tuple] = []  # (start, end, traced, host) per update batch
        self.store_sizes: dict[bool, list[int]] = {False: [], True: []}
        self.request_ids = itertools.count()
        self.payloads = [inputs.payload(i) for i in range(len(inputs.pool))]

    # -- bookkeeping ---------------------------------------------------------
    def count(self, phase: str, attempted: int, failed: int = 0) -> None:
        self.attempted[phase] = self.attempted.get(phase, 0) + attempted
        self.failed[phase] = self.failed.get(phase, 0) + failed

    def mark(self) -> tuple[float, int, float]:
        """Reference probe, steal ticks and time at the edge of a sample."""
        return self.reference.probe(), steal_ticks(), time.perf_counter()

    def between(self, before: tuple, after: tuple | None = None) -> dict:
        """Host conditions over the interval between two marks."""
        after = after or self.mark()
        return {
            "speed": self.reference.scale(before[0], after[0]),
            "steal": (after[1] - before[1]) / CLOCK_TICKS,
            "span": after[2] - before[2],
        }

    def sample(
        self, name: str, value: float, host: dict, *, rate: bool = False, traced=None
    ) -> None:
        """Record one sample with the host conditions measured around it."""
        traced = self.tracer.enabled if traced is None else traced
        factor = 1 / host["speed"] if rate else host["speed"]
        self.samples.setdefault(name, []).append({
            "value": value, "factor": factor, "traced": traced, **host})

    def values(self, name: str, traced: bool) -> list[float]:
        """Samples of one tracing state, corrected for the host's conditions."""
        samples = self.samples.get(name, ())
        return [s["value"] * s["factor"] for s in samples if s["traced"] == traced]

    def alternate(self, number: int) -> bool:
        """Tracing on for odd-numbered samples of a traced run."""
        self.tracer.enabled = self.traced and number % 2 == 1
        return self.tracer.enabled

    def _instrumented(self) -> contextlib.ExitStack:
        """Spans around the layer functions the program calls internally."""
        stack = contextlib.ExitStack()
        if self.traced:
            for owner, attribute, name in (
                (minimizer_core, "build_z_estimation", "core.estimation"),
                (mwst, "build_index_data_from_estimation", "indexes.leaf_data"),
                (QueryPlanner, "plan", "indexes.plan"),
                (QueryPlanner, "execute", "indexes.execute"),
            ):
                stack.enter_context(self.tracer.wrapped(owner, attribute, name))
        return stack

    # -- the run -------------------------------------------------------------
    def execute(self) -> None:
        self.warm_log.write_text(
            "".join(json.dumps({"pattern": p}) + "\n" for p in self.inputs.warm_log))
        with self._instrumented():
            index = self._build(self.store)
            counts = index_counts(index)
            del index
            self.metrics["store_bytes"] = (float(store_bytes(self.store)), "B")
            if self.traced:
                self._serial_build()
                self._replay()
                self._durable()
            else:
                self._peak()
            self._open_batch()
            asyncio.run(self._serve())
        self.layers["core.estimation_entries"] = (float(counts["estimation_entries"]), "count")
        self.layers["indexes.leaves"] = (float(counts["leaves"]), "count")
        self.layers["indexes.index_size_bytes"] = (float(counts["index_size_bytes"]), "B")
        self._check_batch()
        self._finish()

    async def _serve(self) -> None:
        w = self.workload
        server = self._server()
        try:
            self._launch(server)
            connections = [Connection(server.port) for _ in range(CONNECTIONS)]
            for connection in connections:
                await connection.open()
            try:
                pids = server_pids(server, await connections[0].get_json("/stats"))
                warmup = (
                    range(len(self.inputs.pool)) if len(self.inputs.pool) <= WARMUP_REQUESTS
                    else self.inputs.stream[:WARMUP_REQUESTS].tolist()
                )
                await self._closed_loop(connections, iter(warmup), None, record=False)
                requests = (int(i) for i in self.inputs.stream[WARMUP_REQUESTS:])
                before = await self._stats(connections[0])
                for number in range(ROUNDS):
                    self.alternate(number)
                    with self.conditions.phase(f"round{number}"):
                        self._build(self.workdir / "scratch")
                        self._batch_slices(number)
                        side = self._server()
                        try:
                            self._launch(side)
                        finally:
                            side.stop()
                        if not w.shards:
                            await self._read_block(connections, requests, pids)
                self.tracer.enabled = False
                if w.shards:
                    await self._reads_during_writes(connections, requests, pids)
                else:
                    self._account_reads(before, await self._stats(connections[0]))
                    await self._updates(connections[0], pids)
            finally:
                for connection in connections:
                    await connection.close()
        finally:
            server.stop()
        if w.shards:
            self.metrics["store_bytes"] = (float(store_bytes(self.store)), "B")
        self.layers["io.wal_bytes"] = (float(_size(self.store / "wal.log")), "B")
        self.layers["io.update_log_bytes"] = (float(_size(self.store / "update-log.jsonl")), "B")

    def _finish(self) -> None:
        """End-to-end metrics from untraced samples; overhead = traced − untraced."""
        units = {
            "build_s": "s", "setup_s": "s", "batch_patterns_per_s": "patterns/s",
            "http_requests_per_s": "req/s", "query_p50_ms": "ms", "update_p50_ms": "ms",
        }
        for name, unit in units.items():
            off, on = self.values(name, False), self.values(name, True)
            self.metrics[name] = (median(off), unit)
            if self.traced:
                self.layers[f"overhead.{name}"] = (median(on) - median(off), unit)
        if self.traced:
            sizes = self.store_sizes
            self.layers["overhead.store_bytes"] = (median(sizes[True]) - median(sizes[False]), "B")
            self._layers_from_spans()
        self.details["samples"] = {
            name: [s for s in samples if not s["traced"]] for name, samples in self.samples.items()
        }

    # -- build ---------------------------------------------------------------
    def _build_index(self, workers):
        w = self.workload
        with self.tracer.span("indexes.build_index"):
            return build_index(
                self.inputs.source, w.z, kind="MWSA", ell=w.ell, shards=w.shards,
                workers=workers, max_pattern_len=64 if w.shards else None,
            )

    def _build(self, path: Path):
        """One ``build_s`` sample: build, save and verify a store at ``path``."""
        _remove(path)
        before = self.mark()
        started = time.perf_counter()
        with self.tracer.span("build"):
            index = self._build_index(self.workload.build_workers)
            with self.tracer.span("io.save"):
                if self.workload.shards:
                    save_sharded_store(path, index)
                else:
                    save_index(path, index)
            with self.tracer.span("io.verify"):
                report = verify_store(path)
        self.sample("build_s", time.perf_counter() - started, self.between(before))
        self.count("build", 1, not report["ok"])
        self.store_sizes[self.tracer.enabled].append(store_bytes(path))
        return index

    def _serial_build(self) -> None:
        """Parallel shard builds run in worker processes, out of reach of the
        spans: one in-process build attributes their layers."""
        if self.workload.build_workers:
            self.tracer.enabled = True
            with self.tracer.span("build.serial"):
                self._build_index(1)
            self.tracer.enabled = False

    def _peak(self) -> None:
        """``build_peak_mb``: tracemalloc peak of one extra, untimed build."""
        tracemalloc.start()
        try:
            self._build_index(1 if self.workload.build_workers else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.metrics["build_peak_mb"] = (peak / 1e6, "MB")

    # -- batch queries -------------------------------------------------------
    def _open_batch(self) -> None:
        """The store loaded with mmap (as ``query-batch --store``), cache off."""
        w, pool = self.workload, self.inputs.pool
        started = time.perf_counter()
        with self.tracer.span("io.load"):
            index = self._load(mmap=True)
        self.layers["io.load_s"] = (time.perf_counter() - started, "s")
        self.batch_service = QueryService(index, cache_enabled=False)
        self.queries = [Query(pattern, mode=w.mode) for pattern in pool]
        order = list(range(len(pool))) * w.batch_passes
        self.slices = [order[i : i + SLICE] for i in range(0, len(order), SLICE)]
        self.occurrences = 0
        self.batch_service.query_many([self.queries[i] for i in self.slices[0]])  # warm-up

    def _batch_slices(self, number: int) -> None:
        """Every ROUNDS-th slice: one ``batch_patterns_per_s`` sample each."""
        before = self.mark()
        for chunk in self.slices[number::ROUNDS]:
            batch = [self.queries[i] for i in chunk]
            started = time.perf_counter()
            with self.tracer.span("service.query_many"):
                results = self.batch_service.query_many(batch)
            elapsed = time.perf_counter() - started
            after = self.mark()
            self.sample("batch_patterns_per_s", len(batch) / elapsed, self.between(before, after),
                        rate=True)
            before = after
            for i, result in zip(chunk, results):
                self.occurrences += result.count or 0
                self.expected.setdefault(i, result.as_dict())
            self.count("batch", len(batch))

    def _check_batch(self) -> None:
        pool = self.inputs.pool
        rng = np.random.default_rng([self.inputs.seed, 7])
        checked = rng.choice(len(pool), size=min(BATCH_CHECKS, len(pool)), replace=False)
        source = self.inputs.source
        failures = sum(
            not self._agrees(self.expected[int(i)], pool[int(i)], source) for i in checked
        )
        self.count("batch", 0, failures)
        patterns = sum(len(chunk) for chunk in self.slices)
        self.layers["indexes.occurrences_per_pattern"] = (self.occurrences / patterns, "count")

    def _agrees(self, answer: dict, pattern: list[int], source: WeightedString) -> bool:
        """Brute-force check of one answer: positions, and probabilities."""
        positions = source.occurrences(pattern, self.workload.z)
        if answer.get("positions") != positions:
            return False
        if self.workload.mode == "locate_probs":
            expected = [source.occurrence_probability(pattern, p) for p in positions]
            return answer.get("probabilities") == expected
        return True

    def _load(self, *, mmap: bool):
        if self.workload.shards:
            return load_sharded_store(self.store, mmap=mmap)
        return load_index(self.store, mmap=mmap)

    # -- in-process layers (traced runs) -------------------------------------
    def _replay(self) -> None:
        """The HTTP stream through a cached in-process QueryService."""
        service = QueryService(self._load(mmap=True))
        started = time.perf_counter()
        service.warm(self.inputs.warm_log)
        self.layers["service.warm_s"] = (time.perf_counter() - started, "s")
        service.reset_stats()
        stream = self.inputs.stream[:REPLAY_REQUESTS]
        requests = [Query(self.inputs.pool[i], mode=self.workload.mode) for i in stream]
        started = time.perf_counter()
        for query in requests:
            service.query_many([query])
        elapsed = time.perf_counter() - started
        self.layers["service.query_many_us"] = (1e6 * elapsed / len(requests), "us")
        self.layers["service.cache_hit_rate"] = (service.stats()["hit_rate"], "ratio")

    def _durable(self) -> None:
        """``apply_updates`` and its persistence, on a copy of the store."""
        copy = self.workdir / ("copy" if self.workload.shards else "copy.store")
        if self.workload.shards:
            shutil.copytree(self.store, copy)
            index = load_sharded_store(copy, mmap=False)
        else:
            shutil.copyfile(self.store, copy)
            index = load_index(copy, mmap=False)
        apply_s, durable_s, rewritten, written = [], [], [], []
        for batch in self.inputs.updates:
            pairs = expand_updates(batch)
            before = _file_sizes(copy)
            started = time.perf_counter()
            if self.workload.shards:
                report, outcome, _ = apply_updates_durably(copy, index, pairs)
                rewritten.append(len(outcome["rewritten"]))
            else:
                report = index.apply_updates(pairs)
                save_index(copy, index)
                rewritten.append(1)
            durable_s.append(time.perf_counter() - started)
            apply_s.append(report.seconds)
            written.append(_bytes_written(before, _file_sizes(copy)))
        _remove(copy)
        self.layers["indexes.update_s"] = (median(apply_s), "s")
        self.layers["io.durable_update_s"] = (median(durable_s), "s")
        self.layers["io.shards_rewritten_per_update"] = (statistics.mean(rewritten), "count")
        self.layers["io.bytes_written_per_update"] = (statistics.mean(written), "B")

    def _layers_from_spans(self) -> None:
        tracer = self.tracer
        spans = tracer.spans
        own = tracer.self_times()
        parents = {span["parent"] for span in spans}
        # Builds whose layers ran in this process (not in shard workers).
        visible = [s for s in spans if s["name"] == "indexes.build_index" and s["id"] in parents]
        per_build = max(1, len(visible))
        self.layers["core.estimation_s"] = (tracer.self_time("core.estimation") / per_build, "s")
        self.layers["indexes.leaf_data_s"] = (
            tracer.self_time("indexes.leaf_data") / per_build, "s")
        self.layers["indexes.assemble_s"] = (sum(own[s["id"]] for s in visible) / per_build, "s")
        self.layers["io.save_s"] = (median(tracer.durations("io.save")), "s")
        self.layers["io.verify_s"] = (median(tracer.durations("io.verify")), "s")
        builds = [s for s in spans if s["name"] == "build"]
        self.layers["build.unattributed_share"] = (
            sum(own[s["id"]] for s in builds) / sum(s["end"] - s["start"] for s in builds), "ratio")
        patterns = sum(len(chunk) for number in range(1, ROUNDS, 2)
                       for chunk in self.slices[number::ROUNDS])
        self.layers["indexes.plan_us"] = (1e6 * tracer.self_time("indexes.plan") / patterns, "us")
        self.layers["indexes.execute_us"] = (
            1e6 * tracer.self_time("indexes.execute") / patterns, "us")

    # -- serving -------------------------------------------------------------
    def _server(self) -> ServerProcess:
        return ServerProcess(str(self.root), str(self.store),
                             workers=self.workload.serve_workers, warm_log=str(self.warm_log))

    def _launch(self, server: ServerProcess) -> None:
        """One ``setup_s`` sample: launch to ready line."""
        before = self.mark()
        with self.tracer.span("server.launch"):
            ready = server.start()
        self.sample("setup_s", ready, self.between(before))
        self.count("setup", 1)

    async def _stats(self, connection) -> dict:
        return summed_stats(await connection.get_json("/stats"))

    async def _closed_loop(self, connections, requests, stop, *, record: bool) -> None:
        """Each connection sends its next request as soon as the last returns."""

        async def client(connection):
            for index in requests:
                if stop is not None and stop():
                    return
                request_id = next(self.request_ids)
                started = time.perf_counter()
                try:
                    status, body = await connection.request("POST", "/query", self.payloads[index])
                except (asyncio.TimeoutError, ConnectionError):
                    status, body = 0, b""
                ended = time.perf_counter()
                if record:
                    self.records.append((index, status, body, started, ended, self.tracer.enabled))
                    self.tracer.record("http.query", started, ended, request=request_id,
                                       nested=False)

        await asyncio.gather(*(client(c) for c in connections))

    async def _read_block(self, connections, requests, pids) -> None:
        """A round's reads: short closed loops, each one ``http_requests_per_s``
        sample between its own pair of reference probes."""
        duration = READ_SHARE * self.seconds / ROUNDS / READ_SPLIT
        cpu = {pid: process_cpu_s(pid) for pid in pids}
        own = time.process_time()
        for _ in range(READ_SPLIT):
            first = len(self.records)
            before = self.mark()
            started = time.perf_counter()
            deadline = started + duration
            await self._closed_loop(connections, requests, lambda: time.perf_counter() >= deadline,
                                    record=True)
            elapsed = time.perf_counter() - started
            self._sample_reads(self.records[first:], elapsed, self.between(before), None)
        self.read_cpu["client"] += time.process_time() - own
        self.read_cpu["server"] += sum(process_cpu_s(pid) - start for pid, start in cpu.items())

    def _sample_reads(self, records: list, elapsed: float, host: dict, traced) -> None:
        """One read-rate sample for a stretch of reads, and their latencies."""
        self.sample("http_requests_per_s", len(records) / elapsed, host, rate=True, traced=traced)
        for record in records:
            self.sample("query_p50_ms", 1e3 * (record[4] - record[3]), host, traced=record[5])

    def _account_reads(self, before: dict, after: dict) -> None:
        """Check every read and derive the latency and server-side metrics."""
        records = self.records
        failures = 0
        micros, overhead = [], []
        for index, status, body, started, ended, traced in records:
            latency = 1e3 * (ended - started)
            if status != 200:
                failures += 1
                continue
            answer = json.loads(body)
            failures += not self._read_correct(index, answer)
            if not traced:
                micros.append(answer["micros"])
                overhead.append(1e3 * latency - answer["micros"])
        self.count("reads", len(records), failures)
        latencies = [1e3 * (r[4] - r[3]) for r in records if not r[5]]
        delta = {key: after[key] - before[key] for key in after}
        self.details["reads_stats_delta"] = delta
        requests = max(1, len(records))
        self.layers["server.exec_us_p50"] = (median(micros), "us")
        self.layers["server.overhead_us_p50"] = (median(overhead), "us")
        self.layers["server.latency_p90_ms"] = (quantile(latencies, 0.9), "ms")
        self.layers["server.latency_p99_ms"] = (quantile(latencies, 0.99), "ms")
        self.layers["server.cpu_us_per_request"] = (1e6 * self.read_cpu["server"] / requests, "us")
        self.layers["client.cpu_us_per_request"] = (1e6 * self.read_cpu["client"] / requests, "us")
        self.layers["server.mean_batch_size"] = (
            delta["batched_requests"] / max(1, delta["batches"]), "requests/batch")
        self.layers["server.rejected"] = (
            float(delta["shed"] + delta["rate_limited"] + delta["timeouts"]), "count")

    def _read_correct(self, index: int, answer: dict) -> bool:
        """Compare an answer with the in-process answer at its generation.

        At generation g > 0 only the starts whose window covers a position
        updated by batches 1..g can differ; those are re-derived by brute
        force on the benchmark's own mutated copy of the string.
        """
        expected = self.expected[index]
        generation = answer["generation"]
        if generation:
            pattern = self.inputs.pool[index]
            source = self.versions[generation]
            starts = affected_pattern_starts(
                len(pattern), self.updated_upto[generation], len(source))
            touched = set(starts.tolist())
            solid = solid_probability_mask(source.occurrence_probabilities(pattern, starts),
                                           self.workload.z)
            positions = [p for p in expected["positions"] if p not in touched]
            expected = {"positions": sorted(positions + starts[solid].tolist())}
        if answer.get("positions") != expected["positions"]:
            return False
        return self.workload.mode != "locate_probs" or (
            answer.get("probabilities") == expected.get("probabilities"))

    async def _updates(self, connection, pids) -> None:
        """Update batches, each followed by a query over the updated window."""
        w = self.workload
        visible, apply_s, persist_ms = [], [], []
        failures = 0
        before = await self._stats(connection)
        with self.conditions.phase("updates", pids):
            for number, batch in enumerate(self.inputs.updates):
                on = self.alternate(number)
                interval = time.perf_counter()
                pairs = expand_updates(batch)
                current = self.versions[-1]
                current = WeightedString(current.matrix.copy(), current.alphabet)
                current.apply_updates(pairs)
                self.versions.append(current)
                self.updated_upto.append(sorted(set(self.updated_upto[-1]) | {p for p, _ in pairs}))
                pattern = self._confirming_pattern(current, pairs[0][0])
                query = {"pattern": pattern}
                if w.mode != "locate":
                    query["mode"] = w.mode
                edge = self.mark()
                with self.tracer.span("http.update"):
                    started = time.perf_counter()
                    status, reply = await connection.request(
                        "POST", "/update", json.dumps({"updates": batch}).encode())
                    written = time.perf_counter()
                    confirm_status, confirm = await connection.request(
                        "POST", "/query", json.dumps(query).encode())
                    ended = time.perf_counter()
                host = self.between(edge)
                self.sample("update_p50_ms", 1e3 * (ended - started), host)
                visible.append(1e3 * (ended - written))
                ok = status == 200 and confirm_status == 200
                if ok:
                    report = json.loads(reply)["update"]
                    apply_s.append(report["seconds"])
                    persist_ms.append(1e3 * (written - started - report["seconds"]))
                    answer = json.loads(confirm)
                    ok = answer["generation"] == number + 1 and self._agrees(
                        answer, pattern, current)
                failures += not ok
                if w.think_s:
                    await asyncio.sleep(w.think_s)
                self.intervals.append((interval, time.perf_counter(), on, host))
            self.tracer.enabled = False
        after = await self._stats(connection)
        batches = len(self.inputs.updates)
        self.count("updates", batches, failures)
        self.layers["supervisor.apply_s"] = (median(apply_s), "s")
        self.layers["supervisor.persist_reload_ms"] = (median(persist_ms), "ms")
        self.layers["update.visible_query_ms"] = (median(visible), "ms")
        for key in ("invalidations", "rewarms"):
            self.layers[f"service.{key}_per_update"] = (
                (after[key] - before[key]) / batches, "entries/update")
        self.details["updates_stats_delta"] = {key: after[key] - before[key] for key in after}

    def _confirming_pattern(self, source: WeightedString, position: int) -> list[int]:
        """Heavy letters of the updated string over a window around the update."""
        size = self.workload.lengths[0] + 8
        start = max(0, min(position - size // 2, len(source) - size))
        return [int(code) for code in source.matrix[start : start + size].argmax(axis=1)]

    async def _reads_during_writes(self, connections, requests, pids) -> None:
        """One connection reads in a closed loop while the other writes."""
        reader, writer = connections
        done = asyncio.Event()
        before = await self._stats(reader)
        cpu = {pid: process_cpu_s(pid) for pid in pids}
        own = time.process_time()

        async def writes():
            try:
                await self._updates(writer, pids)
            finally:
                done.set()

        await asyncio.gather(
            writes(), self._closed_loop([reader], requests, done.is_set, record=True))
        self.read_cpu["client"] += time.process_time() - own
        self.read_cpu["server"] += sum(process_cpu_s(pid) - start for pid, start in cpu.items())
        # One read-rate sample per update batch (its write, confirmation and think time).
        starts = np.array([record[3] for record in self.records])
        for begin, end, traced, host in self.intervals:
            inside = np.nonzero((starts >= begin) & (starts < end))[0]
            self._sample_reads([self.records[i] for i in inside], end - begin, host, traced)
        self._account_reads(before, await self._stats(reader))


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _file_sizes(path: Path) -> dict[str, tuple[int, int]]:
    entries = path.iterdir() if path.is_dir() else [path]
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in entries if e.is_file()}


def _bytes_written(before: dict, after: dict) -> int:
    """New or rewritten files count whole; appended logs count their growth."""
    written = 0
    for name, (size, mtime) in after.items():
        if before.get(name) == (size, mtime):
            continue
        if name in ("wal.log", "update-log.jsonl") and name in before:
            written += size - before[name][0]
        else:
            written += size
    return written
