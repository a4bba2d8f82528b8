"""The minimizer-based indexes: MWST, MWSA, MWST-G, MWSA-G.

All four variants share the :class:`MinimizerIndexData` built in
:mod:`repro.indexes.minimizer_core`; they differ in

* how the leaf collections are searched — the tree variants (MWST*) walk a
  compacted trie, the array variants (MWSA*) binary-search the sorted leaf
  arrays (exactly the suffix-tree vs suffix-array trade-off of the paper);
* how candidates are generated — the plain variants use the simple,
  practically fast query of Section 5 (match the longer pattern piece, then
  verify every candidate), the *-G* variants implement the Theorem 9 query
  that intersects both pieces through a 2D range-reporting grid.

Every variant verifies its candidates against the weighted string, so all of
them return exactly ``Occ_{1/z}(P, X)``.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.estimation import ZEstimation, resume_z_estimation
from ..core.weighted_string import WeightedString
from ..errors import ConstructionError
from ..geometry.grid import Grid2D
from ..sampling.minimizers import MinimizerScheme
from .base import UncertainStringIndex
from .minimizer_core import (
    MinimizerIndexData,
    apply_updates_to_data,
    build_index_data_from_estimation,
)
from .space import DEFAULT_SPACE_MODEL, ConstructionTracker, IndexStats, SpaceModel
from .verification import verify_candidate_batches

__all__ = [
    "MinimizerIndexBase",
    "MinimizerWST",
    "MinimizerWSA",
    "GridMinimizerWST",
    "GridMinimizerWSA",
]


class MinimizerIndexBase(UncertainStringIndex):
    """Shared implementation of the four minimizer-based index variants."""

    name = "MWST"
    #: Tree variants walk compacted tries; array variants binary-search leaves.
    use_trie = True
    #: Grid variants intersect both pattern pieces through the 2D grid.
    use_grid = False

    def __init__(
        self,
        source: WeightedString,
        z: float,
        data: MinimizerIndexData,
        stats: IndexStats,
        grid: Grid2D | None = None,
    ) -> None:
        super().__init__(source, z)
        self._data = data
        self._stats = stats
        self._grid = grid

    # -- construction -----------------------------------------------------------------
    @classmethod
    def build(
        cls,
        source: WeightedString,
        z: float,
        ell: int,
        *,
        scheme: MinimizerScheme | None = None,
        estimation: ZEstimation | None = None,
        data: MinimizerIndexData | None = None,
        space_model: SpaceModel = DEFAULT_SPACE_MODEL,
    ) -> "MinimizerIndexBase":
        """Build the index through the explicit z-estimation path (Lemma 5).

        A pre-built :class:`MinimizerIndexData` (or z-estimation) may be
        shared across variants, so they index identical samples without
        repeating the shared stages.
        """
        started = time.perf_counter()
        tracker = ConstructionTracker()
        # The input probability matrix is resident during every construction.
        tracker.allocate(space_model.probabilities(len(source) * source.sigma))
        if data is None:
            data = build_index_data_from_estimation(
                source, z, ell, scheme=scheme, estimation=estimation
            )
        elif data.ell != ell:
            raise ConstructionError(
                f"shared index data was built for ell={data.ell}, not ell={ell}"
            )
        elif len(data.source) != len(source) or data.z != z:
            raise ConstructionError(
                f"shared index data was built over n={len(data.source)} at "
                f"z={data.z}, not over n={len(source)} at z={z}"
            )
        entries = data.counters.get("estimation_entries", len(source) * int(z))
        # Explicit construction keeps the z-estimation plus the sampled leaves.
        tracker.allocate(space_model.codes(entries) + space_model.words(entries))
        tracker.allocate(
            data.forward.size_bytes(space_model) + data.backward.size_bytes(space_model)
        )
        grid = None
        if cls.use_grid:
            if data.pairs is None:
                raise ConstructionError(
                    "grid variants need the leaf pairing; build the index data "
                    "with keep_pairs=True (the estimation path does by default)"
                )
            grid = Grid2D(data.pairs)
            tracker.allocate(space_model.words(4 * len(data.pairs)))
        index_size = data.size_bytes(
            space_model, as_tree=cls.use_trie, with_grid=cls.use_grid
        )
        stats = IndexStats(
            name=cls.name,
            index_size_bytes=index_size,
            construction_space_bytes=tracker.peak_bytes,
            construction_seconds=time.perf_counter() - started,
            counters=dict(data.counters),
        )
        return cls(source, z, data, stats, grid)

    # -- updates ----------------------------------------------------------------------------
    def _rebuild_updated(self, positions) -> dict:
        """Localized repair: resume the estimation, re-derive only changed leaves.

        The z-estimation resumes from its last checkpoint at or before the
        first updated position, then
        :func:`~repro.indexes.minimizer_core.apply_updates_to_data` diffs the
        old and new derivations and rebuilds only the affected leaves (plus
        the query caches on top).  Data without an estimation to resume —
        the space-efficient construction, stores written before estimations
        were persisted — takes the universal full rebuild.  When the diff
        dirties most of the leaves the repair declines, and the index is
        rebuilt over the already-resumed estimation (bit-identical to a
        fresh one) instead of estimating a second time.
        """
        from .registry import rebuild_in_place

        data = self._data
        if data.construction != "estimation" or data.estimation is None:
            return rebuild_in_place(self)
        estimation, replay = resume_z_estimation(
            data.estimation, data.source, data.z, positions
        )
        outcome = apply_updates_to_data(data, positions, estimation)
        if outcome is None:
            details = rebuild_in_place(self, estimation=estimation)
            return {**details, "rederived_leaves": len(self._data.forward), **replay}
        data, details = outcome
        self._data = data
        self._grid = Grid2D(data.pairs) if self.use_grid else None
        self._stats.index_size_bytes = data.size_bytes(
            as_tree=self.use_trie, with_grid=self.use_grid
        )
        self._stats.counters.update(
            {key: data.counters[key] for key in ("forward_leaves", "backward_leaves")}
        )
        return {**details, **replay}

    # -- queries ----------------------------------------------------------------------------
    @property
    def minimum_pattern_length(self) -> int:
        return self._data.ell

    @property
    def data(self) -> MinimizerIndexData:
        """The shared minimizer index data (for inspection and tests)."""
        return self._data

    @property
    def grid(self) -> Grid2D | None:
        """The 2D range-reporting grid (grid variants only)."""
        return self._grid

    def _batch_locate(self, code_lists: list) -> list[list[int]]:
        return self._query_batch(code_lists)

    def _batch_locate_probs(self, code_lists: list):
        return self._query_batch(code_lists, with_probabilities=True)

    def _piece_ranges(self, collection, pieces: list) -> list:
        """Sorted-leaf range ``(lo, hi)`` of every piece.

        The tree variants descend the collection's compacted trie once per
        piece; the array variants binary-search its packed leaf keys for the
        whole batch at once.  Both give the same non-empty ranges.
        """
        if self.use_trie:
            trie = collection.build_trie()
            return [trie.descend(piece) for piece in pieces]
        return collection.prefix_range_many(pieces).tolist()

    def _query_batch(self, code_lists: list, *, with_probabilities: bool = False):
        """The query of every minimizer variant, over a batch of distinct patterns.

        Implements the Section-5 simple query (longer piece + verification)
        and the Theorem-9 grid query: leftmost minimizers come from one
        vectorised argmin, leaf ranges from :meth:`_piece_ranges`, and the
        candidates of the whole batch are verified in bulk; only the grid
        reporting stays per pattern.  With ``with_probabilities=True`` each
        entry is a ``(positions, probabilities)`` pair carrying the
        verification stage's exact products.
        """
        if not code_lists:
            return []
        data = self._data
        arrays = [np.asarray(codes, dtype=np.int64) for codes in code_lists]
        mus = [int(mu) for mu in data.scheme.leftmost_pattern_minimizers(arrays)]
        # The forward piece reads rightward from the minimizer, the backward
        # piece leftward (reversed); both are views, never copies.
        forward_pieces = [arr[mu:] for arr, mu in zip(arrays, mus)]
        backward_pieces = [arr[mu::-1] for arr, mu in zip(arrays, mus)]
        candidates_per_row: list = [None] * len(arrays)

        if self.use_grid:
            forward_ranges = self._piece_ranges(data.forward, forward_pieces)
            backward_ranges = self._piece_ranges(data.backward, backward_pieces)
            forward_positions = data.forward.positions
            for row, mu in enumerate(mus):
                flo, fhi = forward_ranges[row]
                blo, bhi = backward_ranges[row]
                if flo >= fhi or blo >= bhi:
                    continue
                points = self._grid.report(flo, fhi, blo, bhi)
                if not points:
                    continue
                xs = np.fromiter((x for x, _ in points), dtype=np.int64, count=len(points))
                candidates_per_row[row] = np.unique(forward_positions[xs] - mu)
        else:
            # Simple query: search only the longer piece of each pattern,
            # batched per side.
            forward_rows = [
                row
                for row in range(len(arrays))
                if len(forward_pieces[row]) >= len(backward_pieces[row])
            ]
            forward_row_set = set(forward_rows)
            backward_rows = [
                row for row in range(len(arrays)) if row not in forward_row_set
            ]
            for rows, collection, pieces in (
                (forward_rows, data.forward, forward_pieces),
                (backward_rows, data.backward, backward_pieces),
            ):
                if not rows:
                    continue
                ranges = self._piece_ranges(collection, [pieces[row] for row in rows])
                positions = collection.positions
                for (lo, hi), row in zip(ranges, rows):
                    if lo < hi:
                        candidates_per_row[row] = np.unique(positions[lo:hi] - mus[row])
        return verify_candidate_batches(
            self._source, self._z, code_lists, candidates_per_row,
            with_probabilities=with_probabilities,
        )


class MinimizerWST(MinimizerIndexBase):
    """MWST: minimizer solid-factor *trees* with the simple Section-5 query."""

    name = "MWST"
    use_trie = True
    use_grid = False


class MinimizerWSA(MinimizerIndexBase):
    """MWSA: array (binary-search) variant with the simple Section-5 query."""

    name = "MWSA"
    use_trie = False
    use_grid = False


class GridMinimizerWST(MinimizerIndexBase):
    """MWST-G: tree variant with the Theorem 9 grid-based query."""

    name = "MWST-G"
    use_trie = True
    use_grid = True


class GridMinimizerWSA(MinimizerIndexBase):
    """MWSA-G: array variant with the Theorem 9 grid-based query."""

    name = "MWSA-G"
    use_trie = False
    use_grid = True
