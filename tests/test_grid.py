"""Tests for repro.geometry.grid (2D range reporting, Lemma 7 substrate)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.grid import BruteForceGrid, Grid2D, RangeTree2D


points_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30)),
    max_size=80,
)
rectangle_strategy = st.tuples(
    st.integers(min_value=0, max_value=32),
    st.integers(min_value=0, max_value=32),
    st.integers(min_value=0, max_value=32),
    st.integers(min_value=0, max_value=32),
)


class TestBackendsAgree:
    @settings(max_examples=60, deadline=None)
    @given(points=points_strategy, rectangle=rectangle_strategy)
    def test_range_tree_matches_brute_force(self, points, rectangle):
        x_lo, x_hi, y_lo, y_hi = rectangle
        tree = RangeTree2D(points)
        brute = BruteForceGrid(points)
        assert sorted(tree.report(x_lo, x_hi, y_lo, y_hi)) == sorted(
            brute.report(x_lo, x_hi, y_lo, y_hi)
        )
        assert tree.count(x_lo, x_hi, y_lo, y_hi) == brute.count(x_lo, x_hi, y_lo, y_hi)

    def test_permutation_points(self):
        # The paper's grid pairs two permutations of [1, N].
        permutation = [3, 0, 2, 1, 4]
        points = list(enumerate(permutation))
        grid = RangeTree2D(points)
        assert sorted(grid.report(0, 5, 0, 5)) == sorted(points)
        assert grid.count(1, 4, 0, 3) == len(
            [(x, y) for x, y in points if 1 <= x < 4 and 0 <= y < 3]
        )


class TestGridFacade:
    def test_auto_backend_small_uses_brute_force(self):
        grid = Grid2D([(0, 0), (1, 1)])
        assert isinstance(grid._backend, BruteForceGrid)

    def test_auto_backend_large_uses_range_tree(self):
        points = [(i, (7 * i) % 101) for i in range(101)]
        grid = Grid2D(points)
        assert isinstance(grid._backend, RangeTree2D)

    def test_len_and_nbytes(self):
        small = Grid2D([(0, 1), (2, 3), (4, 5)])
        assert isinstance(small._backend, BruteForceGrid)
        assert len(small) == 3
        assert small.nbytes() > 0
        points = [(i, (7 * i) % 101) for i in range(Grid2D.BRUTE_FORCE_LIMIT + 1)]
        large = Grid2D(points)
        assert isinstance(large._backend, RangeTree2D)
        assert len(large) == len(points)
        assert large.nbytes() > small.nbytes()

    def test_empty_grid(self):
        grid = Grid2D([])
        assert grid.report(0, 10, 0, 10) == []
        assert grid.count(0, 10, 0, 10) == 0

    def test_degenerate_rectangles(self):
        grid = RangeTree2D([(1, 1), (2, 2)])
        assert grid.report(2, 2, 0, 5) == []
        assert grid.report(0, 5, 3, 3) == []
