"""Point updates: the mutation API, repair strategies and update stores."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.alphabet import Alphabet
from repro.core.heavy import HeavyString
from repro.core.weighted_string import WeightedString
from repro.errors import WeightedStringError
from repro.indexes import brute_force_occurrences, build_index
from repro.indexes.base import affected_pattern_starts
from repro.io.store import (
    load_index,
    load_sharded_store,
    refresh_sharded_store,
    save_index,
    save_sharded_store,
)

Z = 4.0
ELL = 4


def skewed_source(n=80, sigma=4, seed=5) -> WeightedString:
    rng = np.random.default_rng(seed)
    matrix = np.full((n, sigma), 0.1 / (sigma - 1))
    matrix[np.arange(n), rng.integers(0, sigma, n)] = 0.9
    certain = rng.random(n) < 0.35
    matrix[certain] = 0.0
    matrix[certain, rng.integers(0, sigma, int(certain.sum()))] = 1.0
    return WeightedString(matrix, Alphabet("ACGT"[:sigma]), normalize=True)


def heavy_patterns(source, count=25, seed=9):
    rng = np.random.default_rng(seed)
    heavy = source.heavy_codes()
    patterns = []
    for _ in range(count):
        m = int(rng.integers(ELL, 2 * ELL + 1))
        start = int(rng.integers(0, len(source) - m + 1))
        patterns.append([int(code) for code in heavy[start : start + m]])
    return patterns


class TestWeightedStringUpdates:
    def test_update_position_renormalizes_and_bumps_version(self):
        source = skewed_source(20)
        assert source.version == 0
        source.update_position(3, {"A": 2.0, "C": 2.0})
        assert source.version == 1
        assert np.array_equal(source.matrix[3], [0.5, 0.5, 0.0, 0.0])

    def test_vector_distribution_and_batch(self):
        source = skewed_source(20)
        positions = source.apply_updates([(1, [0.25, 0.25, 0.25, 0.25]), (5, {"G": 1.0}), (1, {"T": 1.0})])
        assert positions == [1, 5]
        assert source.version == 1
        assert np.array_equal(source.matrix[1], [0.0, 0.0, 0.0, 1.0])  # last wins

    def test_log_cache_patched_in_place(self):
        source = skewed_source(20)
        _ = source.log_matrix  # populate the cache
        source.update_position(4, {"A": 0.5, "T": 0.5})
        with np.errstate(divide="ignore"):
            assert np.array_equal(source.log_matrix, np.log(source.matrix))

    def test_invalid_updates_rejected_before_mutation(self):
        source = skewed_source(20)
        before = source.matrix.copy()
        with pytest.raises(WeightedStringError, match="outside string"):
            source.apply_updates([(0, {"A": 1.0}), (99, {"A": 1.0})])
        with pytest.raises(WeightedStringError, match="non-negative"):
            source.update_position(0, [1.5, -0.5, 0.0, 0.0])
        with pytest.raises(WeightedStringError, match="cannot all be zero"):
            source.update_position(0, {"A": 0.0})
        with pytest.raises(WeightedStringError, match="entries"):
            source.update_position(0, [0.5, 0.5])
        assert np.array_equal(source.matrix, before)
        assert source.version == 0

    def test_nan_and_infinite_distributions_rejected_before_mutation(self):
        # Regression: NaN compares False against everything, so a NaN row
        # used to sail through both the negativity and the zero-sum guard
        # and normalize into a NaN row (poisoning the log cache with it).
        source = skewed_source(20)
        _ = source.log_matrix  # populate the cache so we can assert it survives
        before = source.matrix.copy()
        log_before = source.log_matrix.copy()
        for bad in (
            {"A": float("nan")},
            [np.nan, 0.5, 0.25, 0.25],
            [np.inf, 0.0, 0.0, 0.0],
            {"C": float("inf")},
        ):
            with pytest.raises(WeightedStringError, match="finite"):
                source.update_position(2, bad)
        # WeightedStringError is a ValueError, so generic update-path
        # handlers (CLI, HTTP 400 mapping) catch it without special-casing.
        with pytest.raises(ValueError):
            source.update_position(2, {"A": float("nan")})
        # A batch with one bad row applies nothing at all.
        with pytest.raises(WeightedStringError, match="finite"):
            source.apply_updates([(0, {"A": 1.0}), (3, [np.nan] * 4)])
        assert np.array_equal(source.matrix, before)
        assert np.array_equal(source.log_matrix, log_before)
        assert source.version == 0

    def test_constructor_rejects_non_finite_matrix(self):
        matrix = np.full((4, 2), 0.5)
        matrix[1, 0] = np.nan
        with pytest.raises(WeightedStringError, match="finite"):
            WeightedString(matrix, Alphabet("AB"), normalize=True)

    def test_apply_range_update_matches_point_batch(self):
        ranged, pointwise = skewed_source(30), skewed_source(30)
        rows = [{"A": 0.5, "C": 0.5}, [0.1, 0.2, 0.3, 0.4], {"T": 1.0}]
        positions = ranged.apply_range_update(10, rows)
        expected = pointwise.apply_updates(list(enumerate(rows, start=10)))
        assert positions == expected == [10, 11, 12]
        assert ranged.matrix.tobytes() == pointwise.matrix.tobytes()
        assert ranged.apply_range_update(0, []) == []
        assert ranged.version == 1

    def test_matrix_stays_read_only_and_views_copy_on_write(self):
        source = skewed_source(20)
        source.update_position(0, {"C": 1.0})
        with pytest.raises(ValueError):
            source.matrix[0, 0] = 1.0
        view = WeightedString(source.matrix[2:10], source.alphabet)
        view.update_position(0, {"T": 1.0})  # must not write through the view
        assert not np.array_equal(source.matrix[2], view.matrix[0])

    def test_heavy_updated_copy_bit_identical(self):
        source = skewed_source(50)
        heavy = HeavyString(source)
        positions = source.apply_updates([(7, {"G": 0.6, "T": 0.4}), (30, {"A": 1.0})])
        patched = heavy.updated_copy(source, positions)
        fresh = HeavyString(source)
        assert np.array_equal(patched.codes, fresh.codes)
        assert patched.probabilities.tobytes() == fresh.probabilities.tobytes()
        assert patched.log_probabilities.tobytes() == fresh.log_probabilities.tobytes()
        assert patched._log_prefix.tobytes() == fresh._log_prefix.tobytes()


class TestAffectedWindow:
    def test_window_is_2m_minus_1_positions_wide(self):
        starts = affected_pattern_starts(4, [10], 100)
        assert list(starts) == [7, 8, 9, 10]

    def test_clamped_at_boundaries(self):
        assert list(affected_pattern_starts(4, [1], 100)) == [0, 1]
        assert list(affected_pattern_starts(4, [99], 100)) == [96]
        assert list(affected_pattern_starts(50, [10], 20)) == []

    def test_union_over_positions(self):
        assert list(affected_pattern_starts(3, [5, 6], 100)) == [3, 4, 5, 6]


class TestMonolithicRepairStrategies:
    @pytest.mark.parametrize("kind", ("MWSA", "MWST", "MWSA-G", "MWST-G"))
    def test_minimizer_repair_is_leaf_identical(self, kind):
        source = skewed_source()
        index = build_index(source, Z, kind=kind, ell=ELL)
        report = index.apply_updates([(11, {"T": 1.0}), (60, {"A": 0.5, "C": 0.5})])
        assert report.strategy in {"localized", "full-rebuild"}
        assert report.generation == index.generation == 1
        fresh = build_index(source, Z, kind=kind, ell=ELL)
        repaired_leaves = [
            (l.anchor, l.length, l.mismatches, l.position, l.source)
            for l in index.data.forward
        ]
        fresh_leaves = [
            (l.anchor, l.length, l.mismatches, l.position, l.source)
            for l in fresh.data.forward
        ]
        assert repaired_leaves == fresh_leaves
        for pattern in heavy_patterns(source):
            assert index.locate(pattern) == brute_force_occurrences(source, pattern, Z)
            assert index.locate_probs(pattern) == fresh.locate_probs(pattern)

    @pytest.mark.parametrize("kind", ("WST", "WSA", "MWST-SE"))
    def test_baselines_full_rebuild(self, kind):
        source = skewed_source()
        kwargs = {"ell": ELL} if kind == "MWST-SE" else {}
        index = build_index(source, Z, kind=kind, **kwargs)
        report = index.apply_updates([(25, {"G": 1.0})])
        assert report.strategy == "full-rebuild"
        for pattern in heavy_patterns(source):
            assert index.locate(pattern) == brute_force_occurrences(source, pattern, Z)

    def test_empty_update_batch_is_noop(self):
        source = skewed_source()
        index = build_index(source, Z, kind="MWSA", ell=ELL)
        data_before = index.data
        report = index.apply_updates([])
        assert report.strategy == "noop" and report.positions == []
        assert index.data is data_before
        assert index.generation == 1

    def test_sequential_batches_accumulate(self):
        source = skewed_source()
        index = build_index(source, Z, kind="MWSA", ell=ELL)
        index.apply_updates([(3, {"A": 1.0})])
        index.apply_updates([(40, {"C": 0.7, "G": 0.3})])
        assert index.generation == 2
        fresh = build_index(source, Z, kind="MWSA", ell=ELL)
        for pattern in heavy_patterns(source):
            assert index.locate(pattern) == fresh.locate(pattern)

    def test_duplicate_positions_last_wins_through_index(self):
        source = skewed_source()
        index = build_index(source, Z, kind="MWSA", ell=ELL)
        report = index.apply_updates(
            [(12, {"A": 1.0}), (12, {"C": 0.5, "G": 0.5}), (12, {"T": 1.0})]
        )
        assert report.positions == [12]
        assert np.array_equal(index.source.matrix[12], [0.0, 0.0, 0.0, 1.0])
        fresh = build_index(index.source, Z, kind="MWSA", ell=ELL)
        for pattern in heavy_patterns(index.source):
            assert index.locate(pattern) == fresh.locate(pattern)

    def test_apply_range_update_repairs_like_point_batch(self):
        source_a, source_b = skewed_source(), skewed_source()
        rows = [{"A": 0.7, "C": 0.3}, {"G": 1.0}, [0.25, 0.25, 0.25, 0.25]]
        index_a = build_index(source_a, Z, kind="MWSA", ell=ELL)
        index_b = build_index(source_b, Z, kind="MWSA", ell=ELL)
        report = index_a.apply_range_update(33, rows)
        index_b.apply_updates(list(enumerate(rows, start=33)))
        assert report.as_dict()["range"] == [33, 36]
        assert report.positions == [33, 34, 35]
        for pattern in heavy_patterns(source_a):
            assert index_a.locate(pattern) == index_b.locate(pattern)


class TestShardedDirtyUpdates:
    def make(self, n=100, shards=4):
        source = skewed_source(n)
        index = build_index(
            source, Z, kind="MWSA", ell=ELL, shards=shards, max_pattern_len=2 * ELL
        )
        return source, index

    def test_interior_update_dirties_one_shard(self):
        source, index = self.make()
        shard = index.shards[2]
        interior = shard.core_end - 1  # beyond every other shard's overlap
        assert interior >= shard.start + (2 * ELL - 1)
        report = index.apply_updates([(interior, {"T": 1.0})])
        assert report.strategy == "dirty-shards"
        assert report.details["rebuilt_shards"] == [2]
        assert index.generations == [0, 0, 1, 0]

    def test_overlap_update_dirties_both_adjacent_shards(self):
        source, index = self.make()
        shard = index.shards[1]
        assert shard.end > shard.core_end, "plan must have an overlap"
        inside_overlap = shard.core_end  # first overlap position of shard 1
        report = index.apply_updates([(inside_overlap, {"G": 1.0})])
        assert report.details["rebuilt_shards"] == [1, 2]
        assert index.generations == [0, 1, 1, 0]

    def test_updates_stay_bit_identical_to_monolith(self):
        source, index = self.make()
        rng = np.random.default_rng(3)
        for batch in range(3):
            updates = [
                (int(rng.integers(len(source))), {"ACGT"[int(rng.integers(4))]: 1.0})
                for _ in range(2)
            ]
            index.apply_updates(updates)
        mono = build_index(source, Z, kind="MWSA", ell=ELL)
        for pattern in heavy_patterns(source, count=40):
            assert index.locate(pattern) == mono.locate(pattern)
            assert index.locate_probs(pattern) == mono.locate_probs(pattern)


class TestUpdateStores:
    def test_single_file_store_keeps_generation_stamps(self, tmp_path):
        source, index = TestShardedDirtyUpdates().make()
        index.apply_updates([(0, {"A": 1.0})])
        save_index(tmp_path / "sharded.idx", index)
        loaded = load_index(tmp_path / "sharded.idx")
        assert loaded.generations == index.generations

    def test_refresh_rewrites_only_dirty_shard_files(self, tmp_path):
        source, index = TestShardedDirtyUpdates().make()
        store = tmp_path / "store"
        save_sharded_store(store, index)
        before = {
            name: (store / name).stat().st_mtime_ns for name in os.listdir(store)
        }
        shard = index.shards[3]
        report = index.apply_updates([(shard.core_end - 1, {"C": 1.0})])
        outcome = refresh_sharded_store(store, index)
        assert outcome["rewritten"] == report.details["rebuilt_shards"]
        for name, mtime in before.items():
            changed = (store / name).stat().st_mtime_ns != mtime
            if name == "manifest.json":
                assert changed
            else:
                number = int(name.split("-")[1].split(".")[0])
                assert changed == (number in outcome["rewritten"]), name

    def test_reloaded_store_answers_like_live_index(self, tmp_path):
        source, index = TestShardedDirtyUpdates().make()
        store = tmp_path / "store"
        save_sharded_store(store, index)
        index.apply_updates([(37, {"G": 0.8, "T": 0.2})])
        refresh_sharded_store(store, index)
        reloaded = load_sharded_store(store)
        assert reloaded.generations == index.generations
        assert np.array_equal(np.asarray(reloaded.source.matrix), source.matrix)
        for pattern in heavy_patterns(source, count=30):
            assert reloaded.locate(pattern) == index.locate(pattern)

    def test_store_loaded_monolithic_update_stays_localized(self, tmp_path):
        # The store persists the estimation + checkpoints, so a loaded index
        # repairs in place instead of falling back to a full rebuild.
        source = skewed_source()
        index = build_index(source, Z, kind="MWSA", ell=ELL)
        save_index(tmp_path / "mono.idx", index)
        loaded = load_index(tmp_path / "mono.idx")
        report = loaded.apply_updates([(10, {"T": 1.0})])
        assert report.strategy == "localized"
        assert report.details.get("estimation_replay") in {"checkpoint", "full"}
        fresh = build_index(
            WeightedString(np.asarray(loaded.source.matrix), source.alphabet),
            Z,
            kind="MWSA",
            ell=ELL,
        )
        for pattern in heavy_patterns(fresh.source, count=20):
            assert loaded.locate(pattern) == fresh.locate(pattern)


class TestUpdateLogAndCompact:
    def test_compact_folds_generations_and_truncates_log(self, tmp_path):
        from repro.io.store import (
            WAL_NAME,
            apply_updates_durably,
            compact_store,
            read_wal,
        )

        source, index = TestShardedDirtyUpdates().make()
        store = tmp_path / "store"
        save_sharded_store(store, index)
        for batch in range(2):
            updates = [(int(10 + 40 * batch), {"C": 0.5, "G": 0.5})]
            apply_updates_durably(store, index, updates, generation_names=True)
        assert list(store.glob("shard-*.g*.idx"))
        records, _, _ = read_wal(store)
        assert [record["type"] for record in records] == ["update", "applied"] * 2
        patterns = heavy_patterns(source, count=20)
        answers_before = [index.locate(pattern) for pattern in patterns]

        outcome = compact_store(store)
        assert outcome["log_entries_cleared"] == 2
        assert not list(store.glob("shard-*.g*.idx"))
        assert not (store / WAL_NAME).exists()
        compacted = load_sharded_store(store)
        assert compacted.generations == [0] * len(compacted.shards)
        assert [compacted.locate(pattern) for pattern in patterns] == answers_before
        # ...and the compacted store is still updatable + refreshable.
        compacted.apply_updates([(5, {"A": 1.0})])
        refresh_sharded_store(store, compacted)
        assert load_sharded_store(store).generations == compacted.generations

    def test_compact_on_pristine_store_is_idempotent(self, tmp_path):
        from repro.io.store import compact_store

        source, index = TestShardedDirtyUpdates().make()
        store = tmp_path / "store"
        save_sharded_store(store, index)
        contents = {
            name: (store / name).read_bytes()
            for name in os.listdir(store)
            if name.endswith(".idx")
        }
        outcome = compact_store(store)
        assert outcome["removed"] == [] and outcome["log_entries_cleared"] == 0
        for name, payload in contents.items():
            assert (store / name).read_bytes() == payload, name

    def test_compact_rejects_single_file_store(self, tmp_path):
        from repro.errors import SerializationError
        from repro.io.store import compact_store

        source = skewed_source()
        index = build_index(source, Z, kind="MWSA", ell=ELL)
        save_index(tmp_path / "mono.idx", index)
        with pytest.raises(SerializationError):
            compact_store(tmp_path / "mono.idx")


class TestRangedWireUpdates:
    def test_parse_updates_expands_ranges(self):
        from repro.service.protocol import parse_updates

        pairs = parse_updates(
            [
                {"start": 3, "rows": [{"A": 0.5, "C": 0.5}, {"G": 1.0}]},
                {"position": 10, "distribution": {"T": 1.0}},
                [11, {"A": 1.0}],
            ]
        )
        assert [position for position, _ in pairs] == [3, 4, 10, 11]

    def test_parse_updates_rejects_malformed_ranges(self):
        from repro.errors import ReproError
        from repro.service.protocol import parse_updates

        for payload in (
            [{"start": 3}],
            [{"start": 3, "rows": []}],
            [{"start": 3, "rows": "AC"}],
            [{"start": "x", "rows": [{"A": 1.0}]}],
            [{"start": 3, "rows": [{"A": 1.0}], "extra": 1}],
        ):
            with pytest.raises(ReproError):
                parse_updates(payload)


class TestConstructionParametersSurviveRepair:
    def test_full_rebuild_keeps_custom_scheme(self, tmp_path):
        from repro.sampling.minimizers import MinimizerScheme

        source = skewed_source()
        scheme = MinimizerScheme(ELL, source.sigma, 2, "lexicographic")
        index = build_index(source, Z, kind="MWSA", ell=ELL, scheme=scheme)
        save_index(tmp_path / "custom.idx", index)
        loaded = load_index(tmp_path / "custom.idx")
        report = loaded.apply_updates([(10, {"T": 1.0})])
        # Store-loaded indexes now repair localized; either way the custom
        # scheme must survive the update.
        assert report.strategy in {"localized", "full-rebuild"}
        assert (loaded.data.scheme.k, loaded.data.scheme.order) == (2, "lexicographic")
        for pattern in heavy_patterns(loaded.source, count=15):
            assert loaded.locate(pattern) == brute_force_occurrences(
                loaded.source, pattern, Z
            )

    def test_store_loaded_sharded_rebuild_keeps_scheme(self, tmp_path):
        from repro.sampling.minimizers import MinimizerScheme

        source = skewed_source(n=100)
        scheme = MinimizerScheme(ELL, source.sigma, 2, "lexicographic")
        index = build_index(
            source, Z, kind="MWSA", ell=ELL, shards=3, max_pattern_len=2 * ELL,
            scheme=scheme,
        )
        save_sharded_store(tmp_path / "store", index)
        loaded = load_sharded_store(tmp_path / "store")
        report = loaded.apply_updates([(10, {"T": 1.0})])
        assert report.strategy == "dirty-shards" and report.details["rebuilt_shards"]
        for shard_index in loaded.shard_indexes:
            assert shard_index.data.scheme.order == "lexicographic"
            assert shard_index.data.scheme.k == 2


class TestReviewRegressions:
    def test_service_update_accepts_a_generator(self):
        from repro.service import QueryService

        source = skewed_source()
        index = build_index(source, Z, kind="MWSA", ell=ELL)
        service = QueryService(index)
        before = source.matrix[9].copy()
        response = service.update((u for u in [(9, {"T": 1.0})]))
        assert response["positions"] == [9]
        assert response["strategy"] != "noop"
        assert not np.array_equal(source.matrix[9], before)
        assert np.array_equal(source.matrix[9], [0.0, 0.0, 0.0, 1.0])

    def test_refresh_rejects_mismatched_parameters(self, tmp_path):
        from repro.errors import SerializationError

        source, index = TestShardedDirtyUpdates().make()
        store = tmp_path / "store"
        save_sharded_store(store, index)
        other_z = build_index(
            source, 16.0, kind="MWSA", ell=ELL, shards=4, max_pattern_len=2 * ELL
        )
        assert [(s.start, s.core_end, s.end) for s in other_z.shards] == [
            (s.start, s.core_end, s.end) for s in index.shards
        ], "precondition: same plan, different z"
        with pytest.raises(SerializationError, match="z="):
            refresh_sharded_store(store, other_z)
