"""Tests for repro.sampling.minimizers (Definition 1, Lemma 1, Example 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.sampling.minimizers import MinimizerScheme, default_k


def brute_minimizers(codes, scheme):
    """Reference implementation straight from the definition."""
    selected = set()
    for start in range(len(codes) - scheme.ell + 1):
        best_value, best_position = None, None
        for t in range(start, start + scheme.ell - scheme.k + 1):
            code = 0
            for letter in codes[t : t + scheme.k]:
                code = code * scheme.sigma + letter
            value = scheme.order_value(code)
            if best_value is None or value < best_value:
                best_value, best_position = value, t
        selected.add(best_position)
    return sorted(selected)


class TestConstruction:
    def test_paper_example2(self):
        # S = ABAABB, ell=4, k=2, lexicographic: the only selected index is 3
        # (1-based), i.e. 2 in 0-based coordinates, where AA starts.
        scheme = MinimizerScheme(ell=4, sigma=2, k=2, order="lexicographic")
        assert scheme.minimizer_positions([0, 1, 0, 0, 1, 1]) == [2]

    def test_default_k_respects_lemma1(self):
        assert default_k(1024, 4) >= 5  # log_4(1024) = 5
        assert default_k(16, 91) >= 2

    def test_default_k_capped_by_ell(self):
        assert default_k(2, 2) == 2

    def test_invalid_parameters(self):
        with pytest.raises(ReproError):
            MinimizerScheme(ell=0, sigma=4)
        with pytest.raises(ReproError):
            MinimizerScheme(ell=4, sigma=0)
        with pytest.raises(ReproError):
            MinimizerScheme(ell=4, sigma=4, k=9)
        with pytest.raises(ReproError):
            MinimizerScheme(ell=4, sigma=4, order="bogus")
        with pytest.raises(ReproError):
            default_k(0, 4)

    def test_repr(self):
        assert "ell=8" in repr(MinimizerScheme(ell=8, sigma=4))


class TestSelection:
    def test_window_minimizer_short_window_rejected(self):
        scheme = MinimizerScheme(ell=4, sigma=2, k=2)
        with pytest.raises(ReproError):
            scheme.leftmost_pattern_minimizers([[0, 1, 0, 1], [0, 1]])

    def test_leftmost_pattern_minimizer_matches_window(self):
        patterns = [[1, 0, 0, 1, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0, 0]]
        for order in ("lexicographic", "random"):
            scheme = MinimizerScheme(ell=4, sigma=2, k=2, order=order)
            # The first window's minimizer is the one selected position of
            # the pattern's length-ℓ prefix.
            expected = [brute_minimizers(pattern[:4], scheme) for pattern in patterns]
            offsets = scheme.leftmost_pattern_minimizers(patterns)
            assert [[int(offset)] for offset in offsets] == expected

    def test_string_shorter_than_window_has_no_minimizers(self):
        scheme = MinimizerScheme(ell=8, sigma=2, k=2)
        assert scheme.minimizer_positions([0, 1, 0]) == []

    @pytest.mark.parametrize("order", ["lexicographic", "random"])
    @settings(max_examples=50, deadline=None)
    @given(
        codes=st.lists(st.integers(min_value=0, max_value=2), max_size=30),
        ell=st.integers(min_value=2, max_value=8),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_matches_brute_force(self, order, codes, ell, k):
        k = min(k, ell)
        scheme = MinimizerScheme(ell=ell, sigma=3, k=k, order=order)
        assert scheme.minimizer_positions(codes) == brute_minimizers(codes, scheme)

    def test_valid_window_restriction(self):
        scheme = MinimizerScheme(ell=3, sigma=2, k=2, order="lexicographic")
        codes = [0, 1, 0, 1, 0, 1]
        everything = scheme.minimizer_positions(codes)
        nothing = scheme.minimizer_positions(codes, valid_window=[False] * 4)
        only_first = scheme.minimizer_positions(
            codes, valid_window=[True, False, False, False]
        )
        assert nothing == []
        assert set(only_first) <= set(everything)
        assert len(only_first) == 1


class TestDensity:
    def test_density_definition(self):
        scheme = MinimizerScheme(ell=4, sigma=2, k=2, order="lexicographic")
        codes = [0, 1, 0, 0, 1, 1, 0, 1]
        assert scheme.density(codes) == pytest.approx(
            len(scheme.minimizer_positions(codes)) / len(codes)
        )

    def test_density_of_empty_string(self):
        assert MinimizerScheme(ell=4, sigma=2).density([]) == 0.0

    def test_density_close_to_lemma1_bound_on_random_input(self):
        import random

        rng = random.Random(0)
        codes = [rng.randrange(4) for _ in range(4000)]
        scheme = MinimizerScheme(ell=32, sigma=4, order="random")
        # Lemma 1: expected density O(1/ell); the classic bound is 2/(ell-k+2).
        assert scheme.density(codes) <= 3.0 * scheme.expected_density_bound()
        # Every window of length ell contains a selected position, so the
        # density cannot drop much below 1/ell.
        assert scheme.density(codes) >= 0.9 / scheme.ell

    def test_adversarial_lexicographic_input(self):
        # Section 8: on abcdefg... every position is a minimizer under the
        # lexicographic order — the worst case the paper warns about.
        scheme = MinimizerScheme(ell=4, sigma=26, k=2, order="lexicographic")
        codes = list(range(26))
        density = scheme.density(codes)
        assert density > 0.5
