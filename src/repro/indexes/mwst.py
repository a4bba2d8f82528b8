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

from ..core.estimation import ZEstimation, resume_z_estimation
from ..core.weighted_string import WeightedString
from ..errors import ConstructionError
from ..geometry.grid import Grid2D
from ..sampling.minimizers import MinimizerScheme
from .base import UncertainStringIndex
from .engine import locate_minimizer_batch
from .minimizer_core import (
    MinimizerIndexData,
    apply_updates_to_data,
    build_index_data_from_estimation,
)
from .space import DEFAULT_SPACE_MODEL, ConstructionTracker, IndexStats, SpaceModel
from .verification import verify_against_source

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
        self._forward_trie = None
        self._backward_trie = None
        if self.use_trie:
            self._forward_trie = data.forward.build_trie()
            self._backward_trie = data.backward.build_trie()

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
        self._forward_trie = self._backward_trie = None
        if self.use_trie:
            self._forward_trie = data.forward.build_trie()
            self._backward_trie = data.backward.build_trie()
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

    def _range(self, collection, trie, piece) -> tuple[int, int]:
        if self.use_trie and trie is not None:
            return trie.descend(piece)
        return collection.prefix_range(piece)

    def _candidates(self, codes) -> set[int]:
        data = self._data
        mu, forward_piece, backward_piece = data.split_pattern(codes)
        if self.use_grid:
            flo, fhi = self._range(data.forward, self._forward_trie, forward_piece)
            blo, bhi = self._range(data.backward, self._backward_trie, backward_piece)
            if flo >= fhi or blo >= bhi:
                return set()
            points = self._grid.report(flo, fhi, blo, bhi)
            forward_positions = data.forward.positions
            return {int(forward_positions[x]) - mu for x, _ in points}
        # Simple query (Section 5): search only the longer piece, verify later.
        if len(forward_piece) >= len(backward_piece):
            lo, hi = self._range(data.forward, self._forward_trie, forward_piece)
            return data.candidate_positions(range(lo, hi), data.forward, mu)
        lo, hi = self._range(data.backward, self._backward_trie, backward_piece)
        return data.candidate_positions(range(lo, hi), data.backward, mu)

    def _locate_codes(self, codes) -> list[int]:
        """Scalar strategy: candidate generation + per-candidate verification."""
        results = []
        for candidate in self._candidates(codes):
            if candidate < 0 or candidate + len(codes) > len(self._source):
                continue
            if verify_against_source(self._source, codes, candidate, self._z):
                results.append(candidate)
        return sorted(results)

    def _batch_locate(self, code_lists: list) -> list[list[int]]:
        """Vectorised batch strategy shared by all minimizer variants."""
        return locate_minimizer_batch(self, code_lists)

    def _batch_locate_probs(self, code_lists: list):
        """Batch strategy surfacing the verification stage's exact products."""
        return locate_minimizer_batch(self, code_lists, with_probabilities=True)


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
