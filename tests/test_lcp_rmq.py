"""Tests for repro.strings.lcp and repro.strings.rmq."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.strings.lcp import LCEIndex, _kasai, lcp_array, lcp_of_strings
from repro.strings.rmq import SparseTableRMaxQ, SparseTableRMQ, report_at_least
from repro.strings.suffix_array import suffix_array


def brute_lcp(a, b):
    length = 0
    while length < min(len(a), len(b)) and a[length] == b[length]:
        length += 1
    return length


class TestLCP:
    def test_lcp_of_strings(self):
        assert lcp_of_strings([1, 2, 3], [1, 2, 4]) == 2
        assert lcp_of_strings([], [1]) == 0
        assert lcp_of_strings([5], [5]) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2), max_size=40))
    def test_kasai_matches_brute_force(self, codes):
        sa = suffix_array(codes)
        lcp = lcp_array(np.asarray(codes), sa)
        assert lcp[0] == 0 if len(codes) else True
        for rank in range(1, len(codes)):
            assert lcp[rank] == brute_lcp(codes[sa[rank - 1] :], codes[sa[rank] :])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=30))
    def test_lce_index_matches_brute_force(self, codes):
        lce = LCEIndex(codes)
        for first in range(len(codes)):
            for second in range(len(codes)):
                assert lce.lce(first, second) == brute_lcp(codes[first:], codes[second:])

    def test_lce_compare_suffixes(self):
        lce = LCEIndex([0, 1, 0, 1])
        assert lce.compare_suffixes(0, 2) > 0   # "0101" > "01"
        assert lce.compare_suffixes(2, 0) < 0
        assert lce.compare_suffixes(1, 1) == 0

    def test_lce_nbytes_positive(self):
        assert LCEIndex([0, 1, 2]).nbytes() > 0


class TestKasai:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_lcp(self, seed):
        # The recurrence alone, over a suffix array sorted in plain Python.
        rng = np.random.default_rng(seed)
        text = rng.integers(0, 4, size=int(rng.integers(2, 80))).astype(np.int64)
        sa = np.array(
            sorted(range(len(text)), key=lambda s: tuple(text[s:])), dtype=np.int64
        )
        ranks = np.empty(len(text), dtype=np.int64)
        ranks[sa] = np.arange(len(text))
        lcp = np.zeros(len(text), dtype=np.int64)
        _kasai(text, sa, ranks, lcp)
        for rank in range(1, len(text)):
            assert lcp[rank] == brute_lcp(text[sa[rank - 1] :], text[sa[rank] :])


class TestRMQ:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40))
    def test_sparse_table_min(self, values):
        rmq = SparseTableRMQ(values)
        for start in range(len(values)):
            for stop in range(start + 1, len(values) + 1):
                assert rmq.range_min(start, stop) == min(values[start:stop])

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SparseTableRMQ([1, 2]).range_min(1, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40))
    def test_sparse_table_max(self, values):
        rmax = SparseTableRMaxQ(values)
        for start in range(len(values)):
            for stop in range(start + 1, len(values) + 1):
                best = rmax.range_argmax(start, stop)
                assert start <= best < stop
                assert values[best] == max(values[start:stop])

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=30),
        threshold=st.integers(min_value=0, max_value=20),
    )
    def test_report_at_least(self, values, threshold):
        rmax = SparseTableRMaxQ(values)
        reported = sorted(report_at_least(rmax, 0, len(values), threshold))
        assert reported == [i for i, value in enumerate(values) if value >= threshold]

    def test_report_on_subrange(self):
        rmax = SparseTableRMaxQ([5, 1, 7, 3, 7])
        assert sorted(report_at_least(rmax, 1, 4, 3)) == [2, 3]
        assert report_at_least(rmax, 2, 2, 0) == []
