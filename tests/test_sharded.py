"""Sharded index architecture: planning, equivalence, parallel builds.

The oracle-equivalence cases assert the ISSUE-2 acceptance criterion:
``ShardedIndex`` answers are identical to the monolithic index and to brute
force across shard counts {1, 2, 7}, including patterns that straddle shard
boundaries.  The wall-clock speedup demonstration runs only on machines with
at least 4 cores (CI runners); single-core boxes still exercise the
multiprocessing path for correctness.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.estimation import build_z_estimation
from repro.errors import ConstructionError, PatternError
from repro.indexes import (
    ShardedIndex,
    brute_force_occurrences,
    build_index,
    plan_shards,
)
from repro.indexes.minimizer_core import build_index_data_from_estimation

SHARD_COUNTS = (1, 2, 7)


def _source(factory, n=60, sigma=3, seed=5):
    return factory(n, sigma=sigma, uncertain_fraction=0.5, seed=seed)


def _overlap_patterns(sharded, source, ell):
    """Random patterns plus heavy-string factors starting in every shard overlap."""
    rng = np.random.default_rng(2)
    heavy = source.heavy_codes()
    patterns = [
        [int(code) for code in rng.integers(0, source.sigma, size=m)]
        for m in (ell, ell + 1, 2 * ell)
        for _ in range(3)
    ]
    for shard in sharded.shards:
        for start in range(shard.core_end, shard.end):
            for m in (ell, 2 * ell):
                if start + m <= len(source):
                    patterns.append([int(code) for code in heavy[start : start + m]])
    return patterns


class TestPlanShards:
    def test_cores_partition_the_input(self):
        shards = plan_shards(100, 7, overlap=9)
        assert shards[0].start == 0
        assert shards[-1].core_end == 100
        for left, right in zip(shards, shards[1:]):
            assert left.core_end == right.start
        for shard in shards:
            assert shard.end == min(shard.core_end + 9, 100)

    def test_more_shards_than_positions(self):
        shards = plan_shards(3, 10, overlap=2)
        assert len(shards) == 3
        assert [shard.start for shard in shards] == [0, 1, 2]

    def test_invalid_plans_rejected(self):
        with pytest.raises(ConstructionError):
            plan_shards(10, 0, overlap=1)
        with pytest.raises(ConstructionError):
            plan_shards(10, 2, overlap=-1)


class TestShardedEquivalence:
    @pytest.mark.parametrize("shard_count", SHARD_COUNTS)
    @pytest.mark.parametrize("kind", ("MWSA", "WSA"))
    def test_matches_monolithic_and_brute_force(
        self, random_weighted_string_factory, shard_count, kind
    ):
        source = _source(random_weighted_string_factory)
        z, ell = 4.0, 4
        mono = build_index(source, z, kind=kind, ell=ell)
        sharded = build_index(
            source, z, kind=kind, ell=ell, shards=shard_count, max_pattern_len=2 * ell
        )
        rng = np.random.default_rng(shard_count)
        patterns = [
            [int(code) for code in rng.integers(0, source.sigma, size=m)]
            for m in (ell, ell + 2, 2 * ell)
            for _ in range(4)
        ]
        # Boundary-straddling patterns: factors of the heavy string centred on
        # every shard boundary, so each one spans two cores.
        heavy = source.heavy_codes()
        for shard in sharded.shards[1:]:
            boundary = shard.start
            start = max(0, boundary - ell + 1)
            stop = min(len(source), boundary + ell - 1)
            if stop - start >= ell:
                patterns.append([int(code) for code in heavy[start:stop]])
        for pattern in patterns:
            expected = brute_force_occurrences(source, pattern, z)
            assert mono.locate(pattern) == expected
            assert sharded.locate(pattern) == expected, (
                f"{kind} x{shard_count} disagrees on {pattern}"
            )
        assert sharded.match_many(patterns) == mono.match_many(patterns)

        # Update sweep: a point update inside each overlap region must dirty
        # both adjacent shards, and the repaired sharded index must stay
        # bit-identical to a monolithic rebuild on the mutated string.
        updates = []
        for number, shard in enumerate(sharded.shards[:-1]):
            if shard.core_end < shard.end:  # inside the overlap
                updates.append((number, shard.core_end))
        for number, position in updates:
            report = sharded.apply_updates(
                [(position, {source.alphabet.letter(0): 1.0})]
            )
            assert report.strategy == "dirty-shards"
            # The first overlap position of shard ``number`` is also the
            # start of shard ``number + 1``'s core: both must rebuild.
            expected_dirty = [number, number + 1]
            assert report.details["rebuilt_shards"] == expected_dirty, (
                f"overlap update at {position} must dirty shards {expected_dirty}"
            )
        if updates:
            mono_after = build_index(source, z, kind=kind, ell=ell)
            for pattern in patterns:
                expected = brute_force_occurrences(source, pattern, z)
                assert sharded.locate(pattern) == expected
                assert mono_after.locate(pattern) == expected
            assert sharded.match_many(patterns) == mono_after.match_many(patterns)

    def test_single_shard_equals_monolithic_sizes(self, random_weighted_string_factory):
        source = _source(random_weighted_string_factory)
        mono = build_index(source, 4, kind="MWSA", ell=4)
        sharded = build_index(source, 4, kind="MWSA", ell=4, shards=1)
        assert sharded.stats.index_size_bytes == mono.stats.index_size_bytes
        assert sharded.stats.counters["shards"] == 1

    def test_grid_variant_shards(self, random_weighted_string_factory):
        source = _source(random_weighted_string_factory, n=50)
        z, ell = 4.0, 4
        mono = build_index(source, z, kind="MWSA-G", ell=ell)
        sharded = build_index(source, z, kind="MWSA-G", ell=ell, shards=3)
        rng = np.random.default_rng(9)
        patterns = [
            [int(code) for code in rng.integers(0, source.sigma, size=m)]
            for m in (ell, 2 * ell - 1)
            for _ in range(5)
        ]
        assert sharded.match_many(patterns) == mono.match_many(patterns)


class TestShardedValidation:
    def test_pattern_longer_than_overlap_rejected(self, random_weighted_string_factory):
        source = _source(random_weighted_string_factory)
        sharded = build_index(
            source, 4, kind="MWSA", ell=4, shards=2, max_pattern_len=6
        )
        assert sharded.maximum_pattern_length == 6
        too_long = [0] * 7
        with pytest.raises(PatternError):
            sharded.locate(too_long)
        with pytest.raises(PatternError):
            sharded.match_many([[0] * 6, too_long])

    def test_needs_max_pattern_len_or_ell(self, random_weighted_string_factory):
        source = _source(random_weighted_string_factory)
        with pytest.raises(ConstructionError):
            ShardedIndex.build(source, 4, kind="WSA", shard_count=2)
        index = ShardedIndex.build(
            source, 4, kind="WSA", shard_count=2, max_pattern_len=5
        )
        assert index.minimum_pattern_length == 1
        pattern = [0, 1]
        assert index.locate(pattern) == brute_force_occurrences(source, pattern, 4)

    def test_unknown_inner_kind_rejected(self, random_weighted_string_factory):
        source = _source(random_weighted_string_factory)
        with pytest.raises(ConstructionError):
            build_index(source, 4, kind="NOPE", ell=4, shards=2)


class TestParallelBuild:
    def test_parallel_build_matches_serial(self, random_weighted_string_factory):
        source = _source(random_weighted_string_factory, n=80)
        serial = build_index(source, 4, kind="MWSA", ell=4, shards=4)
        parallel = build_index(source, 4, kind="MWSA", ell=4, shards=4, workers=2)
        rng = np.random.default_rng(3)
        patterns = [
            [int(code) for code in rng.integers(0, source.sigma, size=5)]
            for _ in range(10)
        ]
        assert parallel.match_many(patterns) == serial.match_many(patterns)
        assert parallel.stats.counters["workers"] == 2

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="the wall-clock speedup demonstration needs at least 4 cores",
    )
    def test_parallel_build_beats_single_shard_wall_clock(self):
        from repro.datasets.synthetic import sparse_uncertainty_string

        source = sparse_uncertainty_string(20_000, 4, delta=0.1, seed=11)
        z, ell = 16.0, 32
        started = time.perf_counter()
        single = build_index(source, z, kind="MWSA", ell=ell, shards=1)
        single_seconds = time.perf_counter() - started
        started = time.perf_counter()
        sharded = build_index(
            source, z, kind="MWSA", ell=ell, shards=8, workers=4
        )
        sharded_seconds = time.perf_counter() - started
        assert sharded_seconds < single_seconds, (
            f"parallel sharded build took {sharded_seconds:.2f}s, "
            f"single-shard build {single_seconds:.2f}s"
        )
        rng = np.random.default_rng(1)
        patterns = [
            [int(code) for code in rng.integers(0, source.sigma, size=ell)]
            for _ in range(20)
        ]
        assert sharded.match_many(patterns) == single.match_many(patterns)


class TestSharedStages:
    def test_stages_are_shared(self, random_weighted_string_factory):
        source = _source(random_weighted_string_factory)
        estimation = build_z_estimation(source, 4)
        data = build_index_data_from_estimation(source, 4, 4, estimation=estimation)
        wsa = build_index(source, 4, kind="WSA", estimation=estimation)
        mwsa = build_index(source, 4, kind="MWSA", ell=4, data=data)
        mwst_g = build_index(source, 4, kind="MWST-G", ell=4, data=data)
        assert mwsa.data is data and mwst_g.data is data
        pattern = [0, 1, 0, 1]
        expected = brute_force_occurrences(source, pattern, 4)
        for index in (wsa, mwsa, mwst_g):
            assert index.locate(pattern) == expected
        with pytest.raises(ConstructionError):
            build_index(source, 4, kind="MWSA", ell=5, data=data)

    def test_sharded_build_refuses_whole_string_data(self, random_weighted_string_factory):
        """Each shard would index the whole string's leaves against its slice."""
        source = _source(random_weighted_string_factory, n=200)
        data = build_index_data_from_estimation(source, 4, 4)
        with pytest.raises(ConstructionError, match="data="):
            build_index(source, 4, kind="MWSA", ell=4, shards=3, max_pattern_len=8, data=data)

    def test_sharded_build_refuses_whole_string_estimation(
        self, random_weighted_string_factory
    ):
        source = _source(random_weighted_string_factory, n=200)
        estimation = build_z_estimation(source, 4)
        with pytest.raises(ConstructionError, match="estimation="):
            build_index(
                source, 4, kind="MWSA", ell=4, shards=3, max_pattern_len=8,
                estimation=estimation,
            )

    def test_data_over_another_source_length_or_z_rejected(
        self, random_weighted_string_factory
    ):
        source = _source(random_weighted_string_factory, n=200)
        data = build_index_data_from_estimation(source, 4, 4)
        shorter = _source(random_weighted_string_factory, n=120)
        with pytest.raises(ConstructionError, match="n=200"):
            build_index(shorter, 4, kind="MWSA", ell=4, data=data)
        with pytest.raises(ConstructionError, match="z=4"):
            build_index(source, 2, kind="MWSA", ell=4, data=data)
        assert build_index(source, 4, kind="MWSA", ell=4, data=data).data is data

    def test_minimizer_kinds_require_ell(self, random_weighted_string_factory):
        source = _source(random_weighted_string_factory)
        assert build_index(source, 4, kind="WSA").locate([0]) is not None
        with pytest.raises(ConstructionError):
            build_index(source, 4, kind="MWSA")


class TestOneQueryPipeline:
    """A sharded minimizer query splits once, searches every shard, verifies once."""

    @pytest.mark.parametrize("kind", ("MWSA", "MWST", "MWSA-G"))
    def test_one_split_and_one_verification_per_batch(
        self, random_weighted_string_factory, kind, monkeypatch
    ):
        from repro.indexes import mwst
        from repro.sampling.minimizers import MinimizerScheme

        source = _source(random_weighted_string_factory, n=90)
        sharded = build_index(source, 4, kind=kind, ell=4, shards=4, max_pattern_len=8)
        splits = []
        verified = []
        leftmost = MinimizerScheme.leftmost_pattern_minimizers
        verify = mwst.verify_candidate_batches

        def split_spy(self, patterns):
            splits.append(len(patterns))
            return leftmost(self, patterns)

        def verify_spy(source, *args, **kwargs):
            verified.append(source)
            return verify(source, *args, **kwargs)

        monkeypatch.setattr(MinimizerScheme, "leftmost_pattern_minimizers", split_spy)
        monkeypatch.setattr(mwst, "verify_candidate_batches", verify_spy)
        patterns = _overlap_patterns(sharded, source, ell=4)
        answers = sharded.match_many(patterns)
        assert splits == [len({tuple(p) for p in patterns})]
        assert len(verified) == 1 and verified[0] is sharded.source
        assert answers == [brute_force_occurrences(source, p, 4) for p in patterns]

    @pytest.mark.parametrize("kind", ("MWSA", "MWST", "MWSA-G"))
    @pytest.mark.parametrize("shard_count", (4, 9))
    def test_matches_monolithic_through_updates_and_reloads(
        self, random_weighted_string_factory, tmp_path, kind, shard_count
    ):
        from repro.io.store import (
            load_sharded_store,
            refresh_sharded_store,
            reload_sharded_store,
            save_sharded_store,
        )

        z, ell = 4.0, 4
        source = _source(random_weighted_string_factory, n=61, seed=8)
        sharded = build_index(
            source, z, kind=kind, ell=ell, shards=shard_count, max_pattern_len=2 * ell
        )
        if shard_count == 9:
            # The tail shard is shorter than the longest patterns, which skip it.
            assert sharded.shards[-1].length < 2 * ell
        patterns = _overlap_patterns(sharded, source, ell)
        directory = tmp_path / "store"
        save_sharded_store(directory, sharded)
        served = load_sharded_store(directory)

        def assert_equivalent(index, label):
            mono = build_index(source, z, kind=kind, ell=ell)
            expected = [brute_force_occurrences(source, p, z) for p in patterns]
            assert mono.match_many(patterns) == expected
            assert index.match_many(patterns) == expected, label
            for pattern in patterns:
                assert index.locate_probs(pattern) == mono.locate_probs(pattern), label
            # Verification reads the parent's rows, never a shard's own cache.
            assert all(shard.source._log_probs is None for shard in index.shard_indexes)

        assert_equivalent(sharded, "built")
        assert_equivalent(served, "loaded")
        overlap = next(s for s in sharded.shards if s.core_end < s.end)
        report = sharded.apply_updates([(overlap.core_end, {source.alphabet.letter(0): 1.0})])
        assert len(report.details["rebuilt_shards"]) == 2
        assert_equivalent(sharded, "updated")
        refresh_sharded_store(directory, sharded)
        reloaded, numbers = reload_sharded_store(directory, served)
        assert numbers == report.details["rebuilt_shards"]
        assert_equivalent(reloaded, "reloaded")

    def test_shards_with_different_schemes_are_refused(
        self, random_weighted_string_factory, tmp_path
    ):
        from repro.errors import StoreFormatError
        from repro.indexes import MinimizerWSA, MinimizerWST
        from repro.io.store import load_sharded_store, save_index, save_sharded_store
        from repro.sampling.minimizers import MinimizerScheme

        source = _source(random_weighted_string_factory, n=80)
        sharded = build_index(source, 4, kind="MWSA", ell=4, shards=2, max_pattern_len=8)
        first, last = sharded.shard_indexes
        assert last.data.scheme.k != 2
        other = MinimizerWSA.build(
            last.source, 4, 4, scheme=MinimizerScheme(4, source.sigma, k=2)
        )
        for replacement in (other, MinimizerWST.build(last.source, 4, 4)):
            with pytest.raises(ConstructionError):
                ShardedIndex(
                    source, 4, sharded.shards, [first, replacement], "MWSA", 8,
                    sharded.stats,
                )
        save_sharded_store(tmp_path / "store", sharded)
        save_index(tmp_path / "store" / "shard-0001.idx", other)
        with pytest.raises(StoreFormatError, match="minimizer schemes"):
            load_sharded_store(tmp_path / "store")

