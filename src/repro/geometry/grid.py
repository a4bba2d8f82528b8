"""2D range reporting over grid points (the Lemma 7 substrate).

The grid-based indexes (MWST-G, MWSA-G) pair leaves of the forward and
backward minimizer solid-factor trees: point ``(x, y)`` links the leaf of
rank ``x`` in ``Tsuff`` with the leaf of rank ``y`` in ``Tpref`` that carries
the same minimizer label.  A query then asks for all points inside an
axis-aligned rectangle ``[x1, x2) × [y1, y2)``.

Two backends are provided:

* :class:`RangeTree2D` — a segment tree over x whose nodes store their
  points sorted by y ("merge-sort tree"); queries cost
  ``O(log²N + k·log N)`` — the practical counterpart of the
  ``O((1 + k) log N)`` structure of Lemma 7.  The per-node y-orders are
  materialised level by level with one ``np.lexsort`` per level (a stable
  sort within blocks of ``2^h`` positions is exactly the bottom-up stable
  merge), giving two contiguous ``(levels, N)`` arrays that round-trip
  through :meth:`RangeTree2D.to_arrays` / :meth:`RangeTree2D.from_arrays`
  for store reloads;
* :class:`BruteForceGrid` — a linear scan used as a test oracle and for
  very small point sets.

:class:`Grid2D` is the façade the indexes use; it picks the backend and
exposes uniform ``report``/``count`` methods.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..timing import stage_timer

__all__ = ["BruteForceGrid", "RangeTree2D", "Grid2D"]

Point = tuple[int, int]


class BruteForceGrid:
    """Linear-scan backend (test oracle, tiny point sets)."""

    def __init__(self, points: Sequence[Point]) -> None:
        self._points = [(int(x), int(y)) for x, y in points]

    def __len__(self) -> int:
        return len(self._points)

    def report(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> list[Point]:
        """All points with x in [x_lo, x_hi) and y in [y_lo, y_hi)."""
        return [
            (x, y)
            for x, y in self._points
            if x_lo <= x < x_hi and y_lo <= y < y_hi
        ]

    def count(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> int:
        """Number of points inside the rectangle."""
        return len(self.report(x_lo, x_hi, y_lo, y_hi))

    def nbytes(self) -> int:
        """Approximate memory footprint (two integers per point)."""
        return 16 * len(self._points)


class RangeTree2D:
    """Segment tree over x with y-sorted point lists per node.

    Level ``h`` holds all points y-sorted within consecutive blocks of
    ``2^h`` positions (level 0 is the x-sorted base order); a segment-tree
    node of height ``h`` is a contiguous slice of level ``h``.
    """

    #: Class-level counter of from-points builds (``from_arrays`` does not
    #: count) — the no-rederivation test hook for store reloads.
    build_count = 0

    def __init__(self, points: Sequence[Point]) -> None:
        RangeTree2D.build_count += 1
        with stage_timer("grid"):
            array = np.asarray(
                [(int(x), int(y)) for x, y in points], dtype=np.int64
            ).reshape(-1, 2)
            if len(array):
                array = array[np.lexsort((array[:, 1], array[:, 0]))]
            n = len(array)
            size = 1
            while size < max(1, n):
                size *= 2
            levels = size.bit_length()
            ys = array[:, 1]
            level_ys = np.empty((levels, n), dtype=np.int64)
            level_idx = np.empty((levels, n), dtype=np.int64)
            level_ys[0] = ys
            level_idx[0] = np.arange(n, dtype=np.int64)
            positions = level_idx[0]
            for height in range(1, levels):
                order = np.lexsort((ys, positions >> height))
                level_ys[height] = ys[order]
                level_idx[height] = order
        self._points = array
        self._xs = array[:, 0]
        self._size = size
        self._level_ys = level_ys
        self._level_idx = level_idx

    def __len__(self) -> int:
        return len(self._points)

    # -- array round-trip ---------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The sorted points and per-level arrays (for persistence)."""
        return {
            "points": self._points,
            "level_ys": self._level_ys,
            "level_idx": self._level_idx,
        }

    @classmethod
    def from_arrays(
        cls, points: np.ndarray, level_ys: np.ndarray, level_idx: np.ndarray
    ) -> RangeTree2D:
        """Rehydrate from :meth:`to_arrays` output (no rebuild)."""
        tree = cls.__new__(cls)
        tree._points = np.asarray(points, dtype=np.int64).reshape(-1, 2)
        tree._xs = tree._points[:, 0]
        tree._level_ys = np.asarray(level_ys, dtype=np.int64)
        tree._level_idx = np.asarray(level_idx, dtype=np.int64)
        tree._size = 1 << (len(tree._level_ys) - 1)
        return tree

    # -- rectangle decomposition -------------------------------------------------------
    def _canonical_nodes(self, lo: int, hi: int) -> list[int]:
        """O(log N) segment-tree nodes covering point-index range [lo, hi)."""
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

    def _node_slice(self, node: int) -> tuple[int, int, int]:
        """Height and level-array slice of a segment-tree node."""
        level = node.bit_length() - 1
        height = self._size.bit_length() - 1 - level
        start = (node - (1 << level)) << height
        return height, start, min(start + (1 << height), len(self._points))

    def _x_range_to_positions(self, x_lo: int, x_hi: int) -> tuple[int, int]:
        lo = int(np.searchsorted(self._xs, x_lo, side="left"))
        hi = int(np.searchsorted(self._xs, x_hi, side="left"))
        return lo, hi

    # -- queries -----------------------------------------------------------------------
    def report(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> list[Point]:
        """All points inside ``[x_lo, x_hi) × [y_lo, y_hi)``."""
        lo, hi = self._x_range_to_positions(x_lo, x_hi)
        if lo >= hi or y_lo >= y_hi:
            return []
        points = self._points
        results: list[Point] = []
        for node in self._canonical_nodes(lo, hi):
            height, start, stop = self._node_slice(node)
            ys = self._level_ys[height, start:stop]
            first = int(np.searchsorted(ys, y_lo, side="left"))
            last = int(np.searchsorted(ys, y_hi, side="left"))
            for position in self._level_idx[height, start + first : start + last]:
                results.append((int(points[position, 0]), int(points[position, 1])))
        return results

    def count(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> int:
        """Number of points inside the rectangle (no reporting cost)."""
        lo, hi = self._x_range_to_positions(x_lo, x_hi)
        if lo >= hi or y_lo >= y_hi:
            return 0
        total = 0
        for node in self._canonical_nodes(lo, hi):
            height, start, stop = self._node_slice(node)
            ys = self._level_ys[height, start:stop]
            total += int(np.searchsorted(ys, y_hi, side="left")) - int(
                np.searchsorted(ys, y_lo, side="left")
            )
        return total

    def nbytes(self) -> int:
        """Approximate memory footprint of the structure."""
        return int(
            self._points.nbytes + self._level_ys.nbytes + self._level_idx.nbytes
        )


class Grid2D:
    """Façade over the range-reporting backends used by the grid indexes."""

    #: Below this many points a linear scan is faster than any structure
    #: (default; overridable per index via ``brute_force_limit``).
    BRUTE_FORCE_LIMIT = 64

    def __init__(
        self,
        points: Sequence[Point],
        backend: str = "auto",
        *,
        brute_force_limit: int | None = None,
    ) -> None:
        points = list(points)
        limit = self.BRUTE_FORCE_LIMIT if brute_force_limit is None else int(brute_force_limit)
        self._brute_force_limit = limit
        if backend == "brute" or (backend == "auto" and len(points) <= limit):
            self._backend = BruteForceGrid(points)
        elif backend in {"auto", "range_tree"}:
            self._backend = RangeTree2D(points)
        else:
            raise ValueError(f"unknown grid backend {backend!r}")
        self._count = len(points)

    @classmethod
    def from_arrays(
        cls,
        points: np.ndarray,
        level_ys: np.ndarray,
        level_idx: np.ndarray,
        *,
        brute_force_limit: int | None = None,
    ) -> Grid2D:
        """Rehydrate a range-tree-backed façade from persisted arrays."""
        grid = cls.__new__(cls)
        grid._brute_force_limit = (
            cls.BRUTE_FORCE_LIMIT if brute_force_limit is None else int(brute_force_limit)
        )
        grid._backend = RangeTree2D.from_arrays(points, level_ys, level_idx)
        grid._count = len(grid._backend)
        return grid

    @property
    def backend_name(self) -> str:
        """``"brute"`` or ``"range_tree"``."""
        return "brute" if isinstance(self._backend, BruteForceGrid) else "range_tree"

    @property
    def brute_force_limit(self) -> int:
        """The backend-selection threshold this façade was built with."""
        return self._brute_force_limit

    def __len__(self) -> int:
        return self._count

    def report(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> list[Point]:
        """All points inside the rectangle."""
        return self._backend.report(x_lo, x_hi, y_lo, y_hi)

    def count(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> int:
        """Number of points inside the rectangle."""
        return self._backend.count(x_lo, x_hi, y_lo, y_hi)

    def nbytes(self) -> int:
        """Approximate memory footprint of the active backend."""
        return self._backend.nbytes()
