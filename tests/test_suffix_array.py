"""Tests for repro.strings.suffix_array."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.strings.matching import find_occurrences
from repro.strings.suffix_array import (
    generalized_suffix_array,
    rank_array,
    suffix_array,
    suffix_array_interval,
)


def brute_suffix_array(codes):
    return sorted(range(len(codes)), key=lambda i: codes[i:])


class TestSuffixArray:
    def test_empty_and_singleton(self):
        assert list(suffix_array([])) == []
        assert list(suffix_array([7])) == [0]

    def test_banana(self):
        codes = [1, 0, 2, 0, 2, 0]  # "banana" with a<b<n coded 0<1<2
        assert list(suffix_array(codes)) == brute_suffix_array(codes)

    def test_all_equal_letters(self):
        codes = [3] * 8
        assert list(suffix_array(codes)) == list(range(7, -1, -1))

    def test_rank_array_is_inverse(self):
        codes = [2, 0, 1, 0, 2, 1, 0]
        sa = suffix_array(codes)
        ranks = rank_array(sa)
        assert all(sa[ranks[i]] == i for i in range(len(codes)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=40))
    def test_matches_brute_force(self, codes):
        assert list(suffix_array(codes)) == brute_suffix_array(codes)

    def test_large_codes_are_supported(self):
        codes = [10_000, 5, 99_999, 5, 10_000]
        assert list(suffix_array(codes)) == brute_suffix_array(codes)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("sigma", [1, 2, 4, 26, 255, 1000])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_texts(self, sigma, seed):
        rng = np.random.default_rng(1000 * sigma + seed)
        for length in (1, 2, 3, 7, 50, 300):
            codes = rng.integers(0, sigma, size=length).tolist()
            assert suffix_array(codes).tolist() == brute_suffix_array(codes)

    @pytest.mark.parametrize("seed", range(6))
    def test_against_naive(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 3, size=int(rng.integers(1, 60))).tolist()
        assert suffix_array(codes).tolist() == brute_suffix_array(codes)

    def test_edge_cases(self):
        for codes in ([], [5], [0, 0, 0, 0], [3, 2, 1, 0], [0, 1, 2, 3], [7] * 40):
            assert suffix_array(codes).tolist() == brute_suffix_array(codes)

    def test_large_sparse_codes(self):
        # Rank compression must handle huge, sparse letter codes.
        codes = np.random.default_rng(9).integers(0, 10**9, size=200).tolist()
        assert suffix_array(codes).tolist() == brute_suffix_array(codes)

    def test_periodic_texts(self):
        # Highly periodic strings need the most doubling rounds.
        for period in ([0, 1], [0, 0, 1], [1, 0, 0, 1], [2, 1, 0]):
            codes = period * 40
            assert suffix_array(codes).tolist() == brute_suffix_array(codes)


class TestPatternInterval:
    @settings(max_examples=40, deadline=None)
    @given(
        codes=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=30),
        pattern=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4),
    )
    def test_interval_matches_naive_occurrences(self, codes, pattern):
        sa = suffix_array(codes)
        lo, hi = suffix_array_interval(codes, sa, pattern)
        from_interval = sorted(int(sa[rank]) for rank in range(lo, hi))
        assert from_interval == find_occurrences(codes, pattern)

    def test_empty_pattern_interval_is_everything(self):
        codes = [0, 1, 0]
        sa = suffix_array(codes)
        assert suffix_array_interval(codes, sa, []) == (0, 3)


class TestGeneralizedSuffixArray:
    def test_concatenation_layout(self):
        text, sa, which, offset = generalized_suffix_array([[0, 1], [1]])
        assert list(text) == [1, 2, 0, 2, 0]
        assert list(which) == [0, 0, -1, 1, -1]
        assert list(offset) == [0, 1, -1, 0, -1]
        assert sorted(sa) == list(range(5))

    def test_empty_collection(self):
        text, sa, which, offset = generalized_suffix_array([])
        assert len(text) == len(sa) == len(which) == len(offset) == 0

    def test_positions_map_back(self):
        strings = [[0, 1, 2], [2, 1], [0]]
        text, sa, which, offset = generalized_suffix_array(strings)
        for position in range(len(text)):
            j, i = int(which[position]), int(offset[position])
            if j >= 0:
                assert strings[j][i] + 1 == text[position]
            else:
                assert text[position] == 0
