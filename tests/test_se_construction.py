"""Tests for repro.indexes.se_construction (Section 4, MWST-SE)."""

import random

import pytest

from repro.core.heavy import max_mismatches
from repro.errors import ConstructionError
from repro.indexes import brute_force_occurrences
from repro.indexes.se_construction import (
    SpaceEfficientMWST,
    _MinSegmentTree,
    build_index_data_space_efficient,
)
from repro.sampling.minimizers import MinimizerScheme


def _key(order: int, tie: int) -> int:
    """Packed (order value, tie) key, mirroring _ExtendedFactorDFS._pack_key."""
    return (order << 32) | tie


class TestMinSegmentTree:
    def test_point_updates_and_queries(self):
        tree = _MinSegmentTree(8)
        tree.set(2, _key(5, 2))
        tree.set(5, _key(3, 5))
        tree.set(7, _key(3, 7))
        assert tree.range_min(0, 8) == _key(3, 5)
        assert tree.range_min(0, 5) == _key(5, 2)
        assert tree.range_min(6, 8) == _key(3, 7)

    def test_clear_restores_sentinel(self):
        tree = _MinSegmentTree(4)
        tree.set(1, _key(1, 1))
        tree.clear(1)
        assert tree.range_min(0, 4) == tree._SENTINEL

    def test_empty_range(self):
        tree = _MinSegmentTree(4)
        assert tree.range_min(2, 2) == tree._SENTINEL

    def test_tie_breaking_prefers_smaller_key(self):
        tree = _MinSegmentTree(4)
        tree.set(0, _key(7, 3))
        tree.set(1, _key(7, 1))
        assert tree.range_min(0, 4) == _key(7, 1)

    def test_bulk_fill_matches_point_updates(self):
        bulk = _MinSegmentTree(6)
        stepwise = _MinSegmentTree(6)
        keys = [_key(order, tie) for tie, order in enumerate((9, 4, 6, 2, 8, 5))]
        bulk.bulk_fill(keys)
        for position, key in enumerate(keys):
            stepwise.set(position, key)
        for lo in range(6):
            for hi in range(lo, 7):
                assert bulk.range_min(lo, hi) == stepwise.range_min(lo, hi)

    def test_matches_min_over_list(self):
        rng = random.Random(41)
        sentinel = _MinSegmentTree._SENTINEL
        for _ in range(60):
            n = rng.randint(1, 48)
            tree = _MinSegmentTree(n)
            # Full-uint64 order halves: the packed keys exceed 64 bits.
            keys = [
                sentinel if rng.random() < 0.3
                else (rng.getrandbits(64) << 32) | rng.randrange(2**31)
                for _ in range(n)
            ]
            tree.bulk_fill(keys)
            for _ in range(25):
                if rng.random() < 0.5:
                    position = rng.randrange(n)
                    if rng.random() < 0.25:
                        tree.clear(position)
                        keys[position] = sentinel
                    else:
                        key = (rng.getrandbits(64) << 32) | rng.randrange(2**31)
                        tree.set(position, key)
                        keys[position] = key
                lo = rng.randint(0, n)
                hi = rng.randint(lo, n)
                assert tree.range_min(lo, hi) == min(keys[lo:hi], default=sentinel)


class TestSpaceEfficientData:
    def test_counters_and_no_pairs(self, small_genomic_string):
        data, counters = build_index_data_space_efficient(small_genomic_string, 8, 16)
        assert data.pairs is None
        assert data.construction == "space_efficient"
        assert counters["forward_leaves"] == len(data.forward)
        assert counters["forward_nodes"] > 0

    def test_leaves_respect_lemma3_on_solid_part(self, paper_example):
        data, _ = build_index_data_space_efficient(paper_example, 4, 3)
        bound = max_mismatches(4)
        for collection in (data.forward, data.backward):
            for leaf in collection:
                assert leaf.mismatch_count() <= bound

    def test_anchor_positions_are_consistent(self, paper_example):
        data, _ = build_index_data_space_efficient(paper_example, 4, 3)
        n = len(paper_example)
        for leaf in data.forward:
            assert leaf.anchor == leaf.position
            assert leaf.length == n - leaf.position
        for leaf in data.backward:
            assert leaf.anchor == n - 1 - leaf.position
            assert leaf.length == leaf.position + 1

    def test_minimizer_positions_match_explicit_construction(self, paper_example):
        from repro.indexes import build_index_data_from_estimation

        scheme = MinimizerScheme(3, 2, k=2, order="lexicographic")
        explicit = build_index_data_from_estimation(paper_example, 4, 3, scheme=scheme)
        space_efficient, _ = build_index_data_space_efficient(
            paper_example, 4, 3, scheme=scheme
        )
        explicit_positions = {leaf.position for leaf in explicit.forward}
        se_positions = {leaf.position for leaf in space_efficient.forward}
        assert explicit_positions == se_positions

    def test_invalid_ell_rejected(self, paper_example):
        with pytest.raises(ConstructionError):
            build_index_data_space_efficient(paper_example, 4, 0)

    def test_node_budget_guard(self, small_genomic_string):
        with pytest.raises(ConstructionError):
            build_index_data_space_efficient(small_genomic_string, 8, 8, max_nodes=3)

    def test_string_shorter_than_ell_yields_no_leaves(self, paper_example):
        data, _ = build_index_data_space_efficient(paper_example, 4, 10)
        assert len(data.forward) == 0 and len(data.backward) == 0


class TestSpaceEfficientIndex:
    def test_queries_match_oracle(self, random_weighted_string_factory):
        rng = random.Random(5)
        ws = random_weighted_string_factory(28, sigma=3, uncertain_fraction=0.7, seed=9)
        z, ell = 8, 4
        index = SpaceEfficientMWST.build(ws, z, ell)
        for _ in range(40):
            m = rng.randint(ell, 8)
            start = rng.randrange(len(ws) - m + 1)
            pattern = [
                int(ws.matrix[start + offset].argmax())
                if rng.random() < 0.8
                else rng.randrange(ws.sigma)
                for offset in range(m)
            ]
            assert index.locate(pattern) == brute_force_occurrences(ws, pattern, z)

    def test_stats_record_dfs_counters(self, small_genomic_string):
        index = SpaceEfficientMWST.build(small_genomic_string, 8, 16)
        assert index.stats.counters["forward_nodes"] > 0
        assert index.stats.counters["backward_nodes"] > 0
        assert index.stats.index_size_bytes > 0

    def test_construction_space_grows_slowly_with_z(self, small_genomic_string):
        low = SpaceEfficientMWST.build(small_genomic_string, 4, 16)
        high = SpaceEfficientMWST.build(small_genomic_string, 32, 16)
        # The z-estimation is never materialised, so the footprint is far from
        # proportional to z (it only grows through the sampled leaves).
        assert (
            high.stats.construction_space_bytes
            < 4 * low.stats.construction_space_bytes
        )
