"""Tests for repro.core.estimation (the Theorem 2 z-estimation)."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_estimation_golden import assert_same_estimation

import repro.core.estimation as estimation_module
from repro.core import build_z_estimation
from repro.core.alphabet import Alphabet
from repro.core.estimation import resume_z_estimation
from repro.core.numerics import solid_count
from repro.core.weighted_string import WeightedString
from repro.errors import InvalidThresholdError


def assert_count_property(ws, estimation, z, max_length):
    """The defining property: Count_S(P, i) = ⌊z · P(X[i..] = P)⌋ for every P, i."""
    for m in range(1, max_length + 1):
        for pattern in itertools.product(range(ws.sigma), repeat=m):
            for start in range(len(ws) - m + 1):
                expected = solid_count(ws.occurrence_probability(pattern, start), z)
                assert estimation.count(pattern, start) == expected, (
                    pattern,
                    start,
                    z,
                )


class TestShape:
    def test_width_is_floor_z(self, paper_example):
        assert build_z_estimation(paper_example, 4).width == 4
        assert build_z_estimation(paper_example, 5.5).width == 5

    def test_length_matches_source(self, paper_example, paper_estimation):
        assert paper_estimation.length == len(paper_example)

    def test_invalid_z_rejected(self, paper_example):
        with pytest.raises(InvalidThresholdError):
            build_z_estimation(paper_example, 0.5)

    def test_strings_and_properties_shapes(self, paper_estimation):
        assert paper_estimation.strings.shape == (4, 6)
        assert paper_estimation.ends.shape == (4, 6)

    def test_property_arrays_are_valid(self, paper_estimation):
        for j in range(paper_estimation.width):
            prop = paper_estimation.property_array(j)  # raises if malformed
            assert len(prop) == 6

    def test_text_and_repr(self, paper_estimation):
        assert len(paper_estimation.text(0)) == 6
        assert "width=4" in repr(paper_estimation)

    def test_empty_source(self):
        from repro.core.alphabet import Alphabet

        ws = WeightedString(np.zeros((0, 2)), Alphabet("AB"))
        estimation = build_z_estimation(ws, 4)
        assert estimation.length == 0 and estimation.width == 4


class TestCountProperty:
    def test_paper_example(self, paper_example, paper_estimation):
        assert_count_property(paper_example, paper_estimation, 4, max_length=6)

    def test_paper_example_counts_match_example4(self, paper_example, paper_estimation):
        alphabet = paper_example.alphabet
        assert paper_estimation.count(alphabet.encode("AB"), 0) == 2
        assert paper_estimation.count(alphabet.encode("A"), 0) == 4
        assert paper_estimation.count(alphabet.encode("AAA"), 0) == 1

    @pytest.mark.parametrize("z", [1, 2, 3, 8, 16])
    def test_count_property_various_z(self, paper_example, z):
        estimation = build_z_estimation(paper_example, z)
        assert_count_property(paper_example, estimation, z, max_length=4)

    @pytest.mark.parametrize("seed", range(6))
    def test_count_property_random_strings(self, random_weighted_string_factory, seed):
        ws = random_weighted_string_factory(9, sigma=3, uncertain_fraction=0.7, seed=seed)
        z = [2, 3, 4, 8, 5.5, 16][seed]
        estimation = build_z_estimation(ws, z)
        assert_count_property(ws, estimation, z, max_length=4)

    def test_occurrence_equivalence(self, paper_example, paper_estimation):
        # Count >= 1 exactly at the z-valid occurrence positions.
        for m in range(1, 5):
            for pattern in itertools.product(range(2), repeat=m):
                assert paper_estimation.occurrences(pattern) == paper_example.occurrences(
                    pattern, 4
                )

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        length=st.integers(min_value=1, max_value=7),
        z=st.sampled_from([1, 2, 4, 8, 3.5]),
    )
    def test_count_property_hypothesis(self, data, length, z):
        sigma = 2
        rows = []
        for _ in range(length):
            weights = data.draw(
                st.lists(st.integers(min_value=0, max_value=4), min_size=sigma, max_size=sigma)
            )
            if sum(weights) == 0:
                weights[0] = 1
            total = sum(weights)
            rows.append({"A": weights[0] / total, "B": weights[1] / total})
        ws = WeightedString.from_dicts(rows)
        if ws.sigma == 1:
            return
        estimation = build_z_estimation(ws, z)
        assert_count_property(ws, estimation, z, max_length=min(4, length))


class TestDerivedQuantities:
    def test_valid_lengths_consistency(self, paper_estimation):
        lengths = paper_estimation.valid_lengths()
        assert lengths.shape == (4, 6)
        assert (lengths <= np.arange(6, 0, -1)[None, :]).all()

    def test_covers(self, paper_estimation):
        for j in range(4):
            for start in range(6):
                length = int(paper_estimation.valid_lengths()[j, start])
                assert paper_estimation.covers(j, start, length)
                assert not paper_estimation.covers(j, start, length + 1)

    def test_empty_pattern_count(self, paper_estimation):
        assert paper_estimation.count([], 3) == 4

    def test_out_of_range_count(self, paper_estimation):
        assert paper_estimation.count([0], 99) == 0

    def test_size_accounting(self, paper_estimation):
        assert paper_estimation.property_suffix_count() > 0
        assert paper_estimation.total_valid_length() >= paper_estimation.property_suffix_count()
        assert paper_estimation.nbytes() > 0


def _random_rows(rng, count: int, sigma: int) -> np.ndarray:
    """Rows mixing certain letters, one dominant letter and free weights."""
    rows = np.zeros((count, sigma))
    for row in rows:
        kind = int(rng.integers(3))
        if kind == 0:
            row[int(rng.integers(sigma))] = 1.0
        elif kind == 1:
            row[:] = 0.08
            row[int(rng.integers(sigma))] = 1.0
        else:
            row[:] = rng.random(sigma) + 0.02
    return rows / rows.sum(axis=1)[:, None]


class TestResume:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=200),
        sigma=st.integers(min_value=1, max_value=5),
        z=st.sampled_from([1, 2, 3.5, 8, 16]),
        every=st.sampled_from([8, 16]),
        ranged=st.booleans(),
        data=st.data(),
    )
    def test_resume_equals_fresh_build(self, seed, n, sigma, z, every, ranged, data):
        rng = np.random.default_rng(seed)
        alphabet = Alphabet([f"c{code}" for code in range(sigma)])
        matrix = _random_rows(rng, n, sigma)
        start = data.draw(st.integers(min_value=0, max_value=n - 1), label="start")
        if ranged:
            count = data.draw(st.integers(min_value=1, max_value=min(8, n - start)))
        else:
            count = 1
        positions = list(range(start, start + count))
        # The full-replay fallback snapshots at the module default cadence.
        with mock.patch.object(estimation_module, "DEFAULT_CHECKPOINT_EVERY", every):
            old = build_z_estimation(WeightedString(matrix, alphabet), z)
            matrix = matrix.copy()
            matrix[positions] = _random_rows(rng, count, sigma)
            source = WeightedString(matrix, alphabet)
            resumed, info = resume_z_estimation(old, source, z, positions)
            fresh = build_z_estimation(source, z, checkpoint_every=every)
        assert [c.position for c in fresh.checkpoints] == list(range(every, n, every))
        assert_same_estimation(resumed, fresh, (n, z, every, positions))
        if every <= start and every < n:
            assert info["estimation_replay"] == "checkpoint"
            assert info["replayed_from"] == start - start % every
