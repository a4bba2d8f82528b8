"""Numpy-level range tree: parity with brute force and the old merge tree.

``RangeTree2D`` builds its levels with one stable ``lexsort`` per level; the
report order must be *bit-identical* to the old list-based merge-sort tree
(stable bottom-up merges), not merely equal as sets — the minimizer grid
query feeds report output straight into candidate sets and the differential
suites compare ordered outputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.grid import BruteForceGrid, Grid2D, RangeTree2D


class OldMergeTree:
    """Faithful copy of the pre-array merge-sort tree (the PR-5 grid).

    Kept verbatim (per-node python lists, stable pairwise merges, the same
    canonical-node iteration) as the report-*order* oracle for the lexsort
    level arrays.
    """

    def __init__(self, points):
        points = sorted((int(x), int(y)) for x, y in points)
        self._points = points
        self._xs = [x for x, _ in points]
        size = 1
        while size < max(1, len(points)):
            size *= 2
        self._size = size
        self._ys = [np.empty(0, dtype=np.int64)] * (2 * size)
        self._idx = [np.empty(0, dtype=np.int64)] * (2 * size)
        for position, (_, y) in enumerate(points):
            leaf = size + position
            self._ys[leaf] = np.array([y], dtype=np.int64)
            self._idx[leaf] = np.array([position], dtype=np.int64)
        for node in range(size - 1, 0, -1):
            left, right = self._ys[2 * node], self._ys[2 * node + 1]
            merged_y = np.concatenate([left, right])
            merged_idx = np.concatenate([self._idx[2 * node], self._idx[2 * node + 1]])
            order = np.argsort(merged_y, kind="stable")
            self._ys[node] = merged_y[order]
            self._idx[node] = merged_idx[order]

    def _canonical_nodes(self, lo, hi):
        nodes = []
        lo += self._size
        hi += self._size
        while lo < hi:
            if lo & 1:
                nodes.append(lo)
                lo += 1
            if hi & 1:
                hi -= 1
                nodes.append(hi)
            lo //= 2
            hi //= 2
        return nodes

    def report(self, x_lo, x_hi, y_lo, y_hi):
        from bisect import bisect_left

        lo = bisect_left(self._xs, x_lo)
        hi = bisect_left(self._xs, x_hi)
        if lo >= hi or y_lo >= y_hi:
            return []
        results = []
        for node in self._canonical_nodes(lo, hi):
            ys = self._ys[node]
            start = int(np.searchsorted(ys, y_lo, side="left"))
            stop = int(np.searchsorted(ys, y_hi, side="left"))
            for position in self._idx[node][start:stop]:
                results.append(self._points[int(position)])
        return results


points_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40)
    ),
    max_size=100,
)
rect_strategy = st.tuples(
    st.integers(min_value=0, max_value=42),
    st.integers(min_value=0, max_value=42),
    st.integers(min_value=0, max_value=42),
    st.integers(min_value=0, max_value=42),
)


class TestLevelArrayParity:
    @settings(max_examples=80, deadline=None)
    @given(points=points_strategy, rect=rect_strategy)
    def test_matches_brute_force(self, points, rect):
        x_lo, x_hi, y_lo, y_hi = rect
        tree = RangeTree2D(points)
        brute = BruteForceGrid(points)
        assert sorted(tree.report(x_lo, x_hi, y_lo, y_hi)) == sorted(
            brute.report(x_lo, x_hi, y_lo, y_hi)
        )
        assert tree.count(x_lo, x_hi, y_lo, y_hi) == brute.count(x_lo, x_hi, y_lo, y_hi)

    @settings(max_examples=40, deadline=None)
    @given(points=points_strategy, rect=rect_strategy)
    def test_report_order_matches_old_merge_tree(self, points, rect):
        x_lo, x_hi, y_lo, y_hi = rect
        tree = RangeTree2D(points)
        expected = OldMergeTree(points).report(x_lo, x_hi, y_lo, y_hi)
        assert tree.report(x_lo, x_hi, y_lo, y_hi) == expected

    def test_permutation_pairing(self):
        rng = np.random.default_rng(2)
        permutation = rng.permutation(128)
        points = [(int(x), int(y)) for x, y in enumerate(permutation)]
        tree = RangeTree2D(points)
        brute = BruteForceGrid(points)
        for _ in range(50):
            x_lo, x_hi = sorted(rng.integers(0, 129, size=2))
            y_lo, y_hi = sorted(rng.integers(0, 129, size=2))
            assert sorted(tree.report(x_lo, x_hi, y_lo, y_hi)) == sorted(
                brute.report(x_lo, x_hi, y_lo, y_hi)
            )


class TestArrayRoundTrip:
    def test_from_arrays_round_trip(self):
        rng = np.random.default_rng(8)
        points = [(int(x), int(y)) for x, y in rng.integers(0, 50, size=(60, 2))]
        tree = RangeTree2D(points)
        arrays = tree.to_arrays()
        clone = RangeTree2D.from_arrays(
            arrays["points"], arrays["level_ys"], arrays["level_idx"]
        )
        assert len(clone) == len(tree)
        for _ in range(30):
            x_lo, x_hi = sorted(rng.integers(0, 51, size=2))
            y_lo, y_hi = sorted(rng.integers(0, 51, size=2))
            assert clone.report(x_lo, x_hi, y_lo, y_hi) == tree.report(
                x_lo, x_hi, y_lo, y_hi
            )

    def test_grid2d_from_arrays_preserves_limit(self):
        # A persisted range tree reloads as one, even below the scan limit.
        points = [(i, i) for i in range(10)]
        tree = RangeTree2D(points)
        arrays = tree.to_arrays()
        grid = Grid2D.from_arrays(
            arrays["points"], arrays["level_ys"], arrays["level_idx"]
        )
        assert grid.backend_name == "range_tree"
        assert Grid2D(points).backend_name == "brute"
        assert len(grid) == 10


class TestBruteForceLimit:
    def test_default_limit_exposed(self):
        assert Grid2D.BRUTE_FORCE_LIMIT == 64

    def test_boundary_selection(self):
        limit = Grid2D.BRUTE_FORCE_LIMIT
        points = [(i, (7 * i) % (limit + 1)) for i in range(limit + 1)]
        at_limit = Grid2D(points[:limit])
        above_limit = Grid2D(points)
        assert at_limit.backend_name == "brute"
        assert above_limit.backend_name == "range_tree"
        # Both backends answer like the linear scan at the boundary.
        for grid, subset in ((at_limit, points[:limit]), (above_limit, points)):
            brute = BruteForceGrid(subset)
            for x_lo, x_hi, y_lo, y_hi in ((0, 65, 0, 65), (2, 37, 3, 49), (5, 5, 0, 10)):
                assert sorted(grid.report(x_lo, x_hi, y_lo, y_hi)) == sorted(
                    brute.report(x_lo, x_hi, y_lo, y_hi)
                )
                assert grid.count(x_lo, x_hi, y_lo, y_hi) == brute.count(
                    x_lo, x_hi, y_lo, y_hi
                )
