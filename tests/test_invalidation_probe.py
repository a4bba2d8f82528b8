"""Exact cache invalidation: the grouped probe against a per-key reference.

:class:`~repro.service.QueryService` drops a cached entry after an update
exactly when one of the pattern's log-probability window sums over
:func:`~repro.indexes.base.affected_pattern_starts` changed.  The service
probes all keys of one pattern length in one block; the reference below
probes them one key at a time, the way the service used to, and both must
name the same stale set.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from test_updates import skewed_source

import repro.service.query_service as query_service
from repro.core.alphabet import Alphabet
from repro.core.weighted_string import WeightedString
from repro.indexes import Query, build_index
from repro.indexes.base import affected_pattern_starts
from repro.service import QueryService

Z = 4.0
ELL = 4
N = 160


def reference_stale(keys, old_source, new_source, positions) -> set:
    """The stale keys, probed one key at a time."""
    stale = set()
    for key in keys:
        codes = np.frombuffer(key[0], dtype=np.int64)
        starts = affected_pattern_starts(len(codes), positions, len(new_source))
        before = old_source.occurrence_log_probabilities(codes, starts)
        after = new_source.occurrence_log_probabilities(codes, starts)
        if not np.array_equal(before, after):
            stale.add(key)
    return stale


def mixed_queries(source, count=60, seed=3) -> list[Query]:
    """Heavy windows and random strings of lengths 4..16 in every mode."""
    rng = np.random.default_rng(seed)
    heavy = source.heavy_codes()
    modes = [
        {"mode": "locate"},
        {"mode": "locate_probs"},
        {"mode": "topk", "k": 2},
        {"mode": "locate", "z": 2.0},
        {"mode": "locate_probs", "zs": [2.0, 4.0]},
    ]
    queries = []
    for number in range(count):
        m = int(rng.integers(ELL, 17))
        if number % 3:
            start = int(rng.integers(0, len(source) - m + 1))
            pattern = heavy[start : start + m].tolist()
        else:
            pattern = rng.integers(0, source.sigma, m).tolist()
        queries.append(Query(pattern, **modes[number % len(modes)]))
    return queries


def update_batches(n: int) -> list[list]:
    rng = np.random.default_rng(11)
    return [
        [(0, {"C": 1.0})],
        [(n - 1, rng.random(4))],
        [(40 + offset, rng.random(4)) for offset in range(6)],  # ranged span
        [(7, {"A": 0.5, "G": 0.5}), (120, {"T": 1.0})],  # zero-probability letters
        [(n - 3 + offset, {"G": 1.0}) for offset in range(3)],  # ranged, at the end
        [(80, np.asarray(skewed_source(N).matrix[80]))],  # the row it already has
    ]


@pytest.mark.parametrize("shards", [None, 3])
def test_update_stale_sets_equal_the_per_key_loop(shards):
    source = skewed_source(N)
    options = {"shards": shards, "max_pattern_len": 16} if shards else {}
    index = build_index(source, Z, kind="MWSA", ell=ELL, **options)
    service = QueryService(index)
    queries = mixed_queries(source)
    invalidated = survived = 0
    for batch in update_batches(N):
        service.query_many(queries)
        keys = list(service._cache)
        old = WeightedString(np.array(source.matrix), source.alphabet)
        response = service.update(batch)
        expected = reference_stale(keys, old, index.source, response["positions"])
        assert set(keys) - set(service._cache) == expected
        assert response["invalidated_entries"] == len(expected)
        invalidated += len(expected)
        survived += len(keys) - len(expected)
        # Every survivor still answers like the updated index.
        for query in queries:
            assert service.query(query).positions == index.query(query).positions
    assert invalidated and survived


def test_adopt_index_stale_sets_equal_the_per_key_loop():
    old_source = skewed_source(N)
    queries = mixed_queries(old_source, seed=5)
    for batch in update_batches(N):
        old_index = build_index(old_source, Z, kind="MWSA", ell=ELL)
        service = QueryService(old_index)
        service.query_many(queries)
        keys = list(service._cache)
        new_source = WeightedString(np.array(old_source.matrix), old_source.alphabet)
        positions = new_source.apply_updates(batch)
        new_index = build_index(new_source, Z, kind="MWSA", ell=ELL)
        report = service.adopt_index(new_index, positions=positions)
        expected = reference_stale(keys, old_source, new_source, positions)
        assert set(keys) - set(service._cache) == expected
        assert report["invalidated_entries"] == len(expected)
        old_source = new_source


def test_long_patterns_over_a_wide_update_stay_inside_the_block_bound(monkeypatch):
    monkeypatch.setattr(query_service, "PROBE_BLOCK_ELEMENTS", 2048)
    n = 600
    source = skewed_source(n, seed=2)
    index = build_index(source, Z, kind="MWSA", ell=ELL)
    service = QueryService(index)
    rng = np.random.default_rng(4)
    heavy = source.heavy_codes()
    starts = rng.choice(n - 70 + 1, size=24, replace=False)
    queries = [
        Query(heavy[start : start + 70].tolist(), mode="locate_probs") for start in starts
    ]
    service.query_many(queries)
    keys = list(service._cache)
    positions = list(range(150, 450))
    # Unchunked, the probe would gather 24 keys × 369 starts × 70 letters in
    # one block (4.96 MB per array); the bound keeps every block at 2048
    # entries (16 KB).
    probe = query_service._InvalidationProbe(keys, positions, n)
    source.log_matrix  # noqa: B018 - computed before measuring
    tracemalloc.start()
    try:
        sums = probe.sums(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = sum(block.nbytes for block in sums)
    assert peak < output + 8 * 8 * 2048 + 64_000
    old = WeightedString(np.array(source.matrix), source.alphabet)
    rows = rng.random((len(positions), 4))
    response = service.update(list(zip(positions, rows)))
    expected = reference_stale(keys, old, source, positions)
    assert expected and set(keys) - set(service._cache) == expected
    assert response["invalidated_entries"] == len(expected)


class TestRewarmLookup:
    def _service(self):
        # A certain string: a pattern's window sum is 0 where it matches and
        # -inf elsewhere, so an update at 2 only changes the sums of the
        # pattern that spells positions 0..5.
        rng = np.random.default_rng(1)
        text = "".join(rng.choice(list("ACGT"), N))
        source = WeightedString.from_string(text, Alphabet("ACGT"))
        index = build_index(source, Z, kind="MWSA", ell=ELL)
        service = QueryService(index)
        patterns = [text[start : start + 6] for start in range(0, 140, 20)]
        service.warm(patterns, remember=True)
        return source, index, service, patterns

    def test_rewarm_validates_only_the_invalidated_warm_queries(self, monkeypatch):
        source, index, service, patterns = self._service()
        validated = []
        original = service.validate
        monkeypatch.setattr(
            service, "validate", lambda request: validated.append(request) or original(request)
        )
        response = service.update([(2, {"T": 0.5, "C": 0.5})])
        assert response["invalidated_entries"] == response["rewarmed_entries"] == 1
        assert [query.pattern for query in validated] == [patterns[0]]
        hits = service.stats()["cache_hits"]
        assert service.query(patterns[0]).positions == index.locate(patterns[0])
        assert service.stats()["cache_hits"] == hits + 1

    def test_warm_query_that_no_longer_validates_is_dropped(self):
        source, index, service, patterns = self._service()
        assert service.stats()["warm_set"] == len(patterns)
        new_source = WeightedString(np.array(source.matrix), source.alphabet)
        positions = new_source.apply_updates([(2, {"T": 0.5, "C": 0.5})])
        # The adopted index needs patterns of at least 8 letters: the
        # invalidated 6-letter warm pattern is dropped, not re-executed.
        report = service.adopt_index(
            build_index(new_source, Z, kind="MWSA", ell=8), positions=positions
        )
        assert report["invalidated_entries"] == 1
        assert report["rewarmed_entries"] == 0
        assert service.stats()["warm_set"] == len(patterns) - 1
