"""Tests for repro.indexes.minimizer_core (leaf collections, Lemma 5 sampling)."""

import numpy as np
import pytest

from repro.core.heavy import HeavyString, max_mismatches
from repro.errors import ConstructionError
from repro.indexes.minimizer_core import (
    FactorLeaf,
    LeafCollection,
    build_index_data_from_estimation,
    build_leaf_arrays_from_estimation,
)
from repro.sampling.minimizers import MinimizerScheme


@pytest.fixture()
def paper_data(paper_example):
    scheme = MinimizerScheme(ell=3, sigma=2, k=2, order="lexicographic")
    return build_index_data_from_estimation(paper_example, 4, 3, scheme=scheme)


class TestFactorLeaf:
    def test_mismatch_count(self):
        leaf = FactorLeaf(anchor=2, length=5, mismatches=((1, 0), (3, 1)), position=2)
        assert leaf.mismatch_count() == 2


class TestLeafCollectionSorting:
    def test_leaves_are_sorted_lexicographically(self, paper_data):
        collection = paper_data.forward
        materialised = [
            tuple(collection.leaf_codes(index)) for index in range(len(collection))
        ]
        assert materialised == sorted(materialised)

    def test_backward_leaves_are_sorted_too(self, paper_data):
        collection = paper_data.backward
        materialised = [
            tuple(collection.leaf_codes(index)) for index in range(len(collection))
        ]
        assert materialised == sorted(materialised)

    def test_raw_to_sorted_is_a_permutation(self, paper_data):
        mapping = paper_data.forward.raw_to_sorted
        assert sorted(int(value) for value in mapping) == list(range(len(mapping)))

    def test_letter_reads_through_mismatches(self, paper_example):
        heavy = HeavyString(paper_example)
        leaf = FactorLeaf(anchor=0, length=3, mismatches=((1, 1),), position=0)
        collection = LeafCollection([leaf], heavy.codes)
        assert collection.leaf_codes(0) == [0, 1, 0]

    def test_prefix_range(self, paper_data):
        collection = paper_data.forward
        for index in range(len(collection)):
            codes = collection.leaf_codes(index, limit=2)
            lo, hi = collection.prefix_range(codes)
            assert lo <= index < hi

    def test_prefix_range_of_absent_piece(self, paper_data):
        collection = paper_data.forward
        lo, hi = collection.prefix_range([1, 1, 1, 1, 1, 1, 1])
        assert lo == hi

    def test_trie_agrees_with_binary_search(self, paper_data):
        collection = paper_data.forward
        trie = collection.build_trie()
        for piece in ([0], [1], [0, 0], [0, 1], [1, 0], [1, 1], [0, 0, 0]):
            from_trie = list(range(*trie.descend(piece)))
            from_search = list(range(*collection.prefix_range(piece)))
            assert from_trie == from_search


class TestEstimationSampling:
    def test_leaf_counts_match_pairs(self, paper_example, paper_estimation):
        scheme = MinimizerScheme(ell=3, sigma=2, k=2, order="lexicographic")
        heavy = HeavyString(paper_example)
        forward, backward = build_leaf_arrays_from_estimation(
            paper_example, 4, 3, scheme, paper_estimation, heavy
        )
        assert len(forward) == len(backward) > 0
        # Row i of both blocks is the leaf pair of one (q, j) label.
        assert np.array_equal(forward.positions, backward.positions)
        assert np.array_equal(forward.sources, backward.sources)

    def test_leaves_respect_lemma3(self, paper_example, paper_estimation):
        scheme = MinimizerScheme(ell=3, sigma=2, k=2)
        heavy = HeavyString(paper_example)
        forward, backward = build_leaf_arrays_from_estimation(
            paper_example, 4, 3, scheme, paper_estimation, heavy
        )
        bound = max_mismatches(4)
        assert all(forward.leaf(row).mismatch_count() <= bound for row in range(len(forward)))
        assert all(backward.leaf(row).mismatch_count() <= bound for row in range(len(backward)))

    def test_forward_leaves_spell_valid_factors(self, paper_example, paper_data):
        # Every forward leaf is a solid factor of X starting at its minimizer.
        collection = paper_data.forward
        for index in range(len(collection)):
            leaf = collection.leaf(index)
            codes = collection.leaf_codes(index)
            assert paper_example.is_solid(codes, leaf.position, 4)

    def test_backward_leaves_spell_valid_factors_reversed(self, paper_example, paper_data):
        collection = paper_data.backward
        for index in range(len(collection)):
            leaf = collection.leaf(index)
            codes = list(reversed(collection.leaf_codes(index)))
            start = leaf.position - len(codes) + 1
            assert paper_example.is_solid(codes, start, 4)

    def test_fewer_leaves_for_larger_ell(self, small_genomic_string):
        small_ell = build_index_data_from_estimation(small_genomic_string, 8, 8)
        large_ell = build_index_data_from_estimation(small_genomic_string, 8, 32)
        assert len(large_ell.forward) <= len(small_ell.forward)

    def test_counters_populated(self, paper_data):
        assert paper_data.counters["forward_leaves"] == len(paper_data.forward)
        assert "estimation_entries" in paper_data.counters

    def test_invalid_ell_rejected(self, paper_example):
        with pytest.raises(ConstructionError):
            build_index_data_from_estimation(paper_example, 4, 0)

    def test_size_accounting_scales_with_tree_and_grid(self, paper_data):
        array_size = paper_data.size_bytes(as_tree=False)
        tree_size = paper_data.size_bytes(as_tree=True)
        grid_size = paper_data.size_bytes(as_tree=False, with_grid=True)
        assert array_size < tree_size
        assert array_size < grid_size


class TestQueryPlumbing:
    def test_split_pattern(self, paper_data):
        mu, forward_piece, backward_piece = paper_data.split_pattern([0, 0, 1, 1])
        assert 0 <= mu <= 2
        assert forward_piece == [0, 0, 1, 1][mu:]
        assert backward_piece == list(reversed([0, 0, 1, 1][: mu + 1]))

    def test_candidate_positions(self, paper_data):
        collection = paper_data.forward
        candidates = paper_data.candidate_positions(range(len(collection)), collection, 1)
        assert all(isinstance(value, int) for value in candidates)
