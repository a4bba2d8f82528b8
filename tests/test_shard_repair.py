"""Sharded updates: every dirty shard repairs itself from its own checkpoints.

A :class:`~repro.indexes.sharded.ShardedIndex` routes an update to each
shard whose covered range holds an updated position, at shard-local
positions.  A minimizer shard resumes its own estimation and re-derives
only the leaves that changed; the other kinds rebuild themselves.  Either
way each repaired shard must equal a fresh build over the mutated slice,
and the merged answers must equal the monolithic ones bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_updates import heavy_patterns, skewed_source

from repro.core.weighted_string import WeightedString
from repro.indexes import brute_force_occurrences, build_index
from repro.indexes.minimizer_core import LeafArrays
from repro.io.store import (
    apply_updates_durably,
    load_sharded_store,
    reload_sharded_store,
    save_sharded_store,
)

Z = 4.0
ELL = 4
#: Three shards of 500 positions: each estimation holds one checkpoint (at
#: 256), so an update past it resumes instead of replaying from 0.
N = 1500


def sharded(kind="MWSA", n=N, shards=3):
    source = skewed_source(n)
    index = build_index(
        source, Z, kind=kind, ell=ELL, shards=shards, max_pattern_len=2 * ELL
    )
    return source, index


def fresh_shard(index, number):
    """A fresh build of the same kind over the parent's (mutated) shard slice."""
    shard = index.shards[number]
    matrix = np.array(index.source.matrix[shard.start : shard.end])
    return build_index(
        WeightedString(matrix, index.source.alphabet), Z, kind=index.kind, ell=ELL
    )


def assert_equals_fresh_build(index, number):
    """Leaf arrays, estimation and checkpoint positions equal a fresh build."""
    live = index.shard_indexes[number].data
    fresh = fresh_shard(index, number).data
    for side in ("forward", "backward"):
        for name in LeafArrays.__slots__:
            assert np.array_equal(
                getattr(getattr(live, side).arrays, name),
                getattr(getattr(fresh, side).arrays, name),
            ), (number, side, name)
    assert np.array_equal(live.estimation.strings, fresh.estimation.strings)
    assert np.array_equal(live.estimation.ends, fresh.estimation.ends)
    assert [c.position for c in live.estimation.checkpoints] == [
        c.position for c in fresh.estimation.checkpoints
    ]


def assert_matches_monolith(index, source, patterns):
    mono = build_index(source, Z, kind=index.kind, ell=ELL)
    for pattern in patterns:
        assert index.locate(pattern) == brute_force_occurrences(source, pattern, Z)
        assert index.locate_probs(pattern) == mono.locate_probs(pattern)


class TestRoutedRepair:
    def test_interior_update_gives_exactly_one_localized_shard(self):
        source, index = sharded()
        shard = index.shards[1]
        report = index.apply_updates([(shard.start + 400, {"T": 1.0})])
        assert report.strategy == "dirty-shards"
        assert report.details["rebuilt_shards"] == [1]
        assert report.details["clean_shards"] == 2
        (repair,) = report.details["shard_repairs"]
        assert repair["shard"] == 1 and repair["strategy"] == "localized"
        # Shard-local: resumed from the shard's own checkpoint at 256.
        assert repair["replayed_from"] == 256
        assert 0 < repair["rederived_leaves"] < len(index.shard_indexes[1].data.forward)
        assert index.generations == [0, 1, 0]
        assert_equals_fresh_build(index, 1)
        assert_matches_monolith(index, source, heavy_patterns(source, count=30))

    def test_overlap_update_repairs_both_shards(self):
        source, index = sharded()
        shard = index.shards[0]
        report = index.apply_updates([(shard.core_end + 2, {"G": 1.0})])
        assert report.details["rebuilt_shards"] == [0, 1]
        repairs = report.details["shard_repairs"]
        assert [repair["shard"] for repair in repairs] == [0, 1]
        assert all(repair["strategy"] == "localized" for repair in repairs)
        assert index.generations == [1, 1, 0]
        for number in (0, 1):
            assert_equals_fresh_build(index, number)
        assert_matches_monolith(index, source, heavy_patterns(source, count=30))

    @pytest.mark.parametrize("kind", ["MWSA", "MWST", "MWSA-G"])
    def test_update_sequence_equals_fresh_shard_builds(self, kind):
        source, index = sharded(kind)
        rng = np.random.default_rng(7)
        batches = [
            [(int(rng.integers(len(source))), rng.random(4))],
            [(index.shards[1].core_end, {"A": 0.5, "C": 0.5})],
            [(900 + offset, rng.random(4)) for offset in range(12)],  # ranged
            [(0, {"C": 1.0}), (len(source) - 1, {"A": 1.0})],
        ]
        for batch in batches:
            report = index.apply_updates(batch)
            for number in report.details["rebuilt_shards"]:
                assert_equals_fresh_build(index, number)
        assert_matches_monolith(index, source, heavy_patterns(source, count=30))

    def test_store_loaded_mmap_index_repairs_and_reloads(self, tmp_path):
        source, built = sharded()
        store = tmp_path / "store"
        save_sharded_store(store, built)
        index = load_sharded_store(store, mmap=True)
        serving = load_sharded_store(store, mmap=True)
        shard = index.shards[2]
        updates = [(shard.start + 300, {"A": 0.7, "T": 0.3})]
        source.apply_updates(updates)
        report, outcome, _ = apply_updates_durably(
            store, index, updates, generation_names=True
        )
        (repair,) = report.details["shard_repairs"]
        assert repair["strategy"] == "localized"
        assert outcome["rewritten"] == [2]
        assert_equals_fresh_build(index, 2)
        reloaded, numbers = reload_sharded_store(store, serving, mmap=True)
        assert numbers == [2]
        assert reloaded.generations == index.generations == [0, 0, 1]
        assert np.array_equal(np.asarray(reloaded.source.matrix), source.matrix)
        assert_equals_fresh_build(reloaded, 2)
        assert_matches_monolith(reloaded, source, heavy_patterns(source, count=30))

    @pytest.mark.parametrize("kind", ["WSA", "MWST-SE"])
    def test_shards_without_a_resumable_estimation_rebuild(self, kind):
        source, index = sharded(kind, n=300)
        shard = index.shards[1]
        report = index.apply_updates(
            [(shard.start + 20, {"T": 1.0}), (shard.core_end, {"C": 0.6, "G": 0.4})]
        )
        assert report.details["rebuilt_shards"] == [1, 2]
        assert [r["strategy"] for r in report.details["shard_repairs"]] == [
            "full-rebuild", "full-rebuild",
        ]
        assert_matches_monolith(index, source, heavy_patterns(source, count=30))

    def test_rows_off_by_ulps_stay_bit_identical(self):
        # A row whose sum is a few ulps off 1: normalising it a second time
        # moves its last bits, so a shard that re-normalised would disagree
        # with the parent and the monolith.
        rng = np.random.default_rng(0)
        for _ in range(1000):
            row = rng.random(4)
            once = row / row.sum()
            if not np.array_equal(once / once.sum(), once):
                break
        else:  # pragma: no cover - the draw above finds one at once
            pytest.fail("no row drifts under a second normalisation")
        source, index = sharded()
        shard = index.shards[1]
        position = shard.start + 400
        index.apply_updates([(position, row)])
        parent_row = index.source.matrix[position]
        shard_row = index.shard_indexes[1].source.matrix[position - shard.start]
        assert np.array_equal(parent_row, once)
        assert parent_row.tobytes() == shard_row.tobytes()
        assert_matches_monolith(index, source, heavy_patterns(source, count=30))


class TestDeclinedRepair:
    def test_decline_rebuilds_over_the_resumed_estimation(self, monkeypatch):
        import repro.indexes.minimizer_core as minimizer_core

        source, index = sharded()
        rng = np.random.default_rng(0)
        rows = list(rng.random((100, 4)))
        estimations = []
        original = minimizer_core.build_z_estimation
        monkeypatch.setattr(
            minimizer_core,
            "build_z_estimation",
            lambda *args, **kwargs: estimations.append(args) or original(*args, **kwargs),
        )
        report = index.apply_range_update(index.shards[1].start + 270, rows)
        (repair,) = report.details["shard_repairs"]
        # Most leaves changed: the merge declined and the shard was rebuilt,
        # over the estimation the repair had already resumed.
        assert repair["strategy"] == "full-rebuild"
        assert repair["replayed_from"] == 256
        assert repair["rederived_leaves"] == len(index.shard_indexes[1].data.forward)
        assert estimations == []
        assert_equals_fresh_build(index, 1)
        assert_matches_monolith(index, source, heavy_patterns(source, count=30))
