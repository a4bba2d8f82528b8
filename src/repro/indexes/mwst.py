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
them return exactly ``Occ_{1/z}(P, X)``.  The query is one three-stage
pipeline, :func:`query_leaf_collections` (split → leaf search → verify),
over leaf collections with offsets: a monolithic index is one collection
pair at offset 0, a sharded index passes every shard's pair.
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
    LeafCollection,
    MinimizerIndexData,
    _concat_ranges,
    apply_updates_to_data,
    build_index_data_from_estimation,
    piece_bounds,
    piece_letters,
)
from .space import DEFAULT_SPACE_MODEL, ConstructionTracker, IndexStats, SpaceModel
from .verification import verify_candidate_batches

__all__ = [
    "MinimizerIndexBase",
    "MinimizerWST",
    "MinimizerWSA",
    "GridMinimizerWST",
    "GridMinimizerWSA",
    "query_leaf_collections",
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
            # Only the grid query reads the leaf pairing.
            data = build_index_data_from_estimation(
                source, z, ell, scheme=scheme, estimation=estimation,
                keep_pairs=cls.use_grid,
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

    # A monolithic index is the one leaf part of its query: offset 0, core [0, n).
    def _batch_locate(self, code_lists: list) -> list[list[int]]:
        parts = [(self, 0, len(self._source))]
        return query_leaf_collections(self._source, self._z, code_lists, parts)

    def _batch_locate_probs(self, code_lists: list):
        parts = [(self, 0, len(self._source))]
        return query_leaf_collections(
            self._source, self._z, code_lists, parts, with_probabilities=True
        )


def query_leaf_collections(
    source: WeightedString,
    z: float,
    code_lists: list,
    parts: list,
    *,
    with_probabilities: bool = False,
) -> list:
    """The query of every minimizer index, over a batch of distinct patterns.

    Implements the Section-5 simple query (search the longer pattern piece,
    verify every candidate) and the Theorem-9 grid query (intersect both
    pieces' leaf ranges in the 2D grid) in three stages:

    1. **split** — one :class:`_SplitBatch` per batch: the leftmost
       minimizers from one vectorised argmin, the pieces each pattern
       searches and their packed search keys;
    2. **leaf search** — every part's collections are searched for the
       pieces (:func:`_leaf_candidates`), and each hit becomes a candidate
       start in the coordinates of ``source``;
    3. **verify** — the candidates of every part are deduplicated in one
       vectorised step and verified once, in bulk, against ``source``.

    ``parts`` lists ``(index, offset, core_end)`` triples: minimizer
    indexes of one kind and one :class:`MinimizerScheme`, each over
    ``source[offset : offset + len(index.source)]``, of which only the
    candidate starts inside the core ``[offset, core_end)`` are kept.  A
    monolithic index is the one part ``(index, 0, n)``; a sharded index
    passes its shards, whose cores partition ``source``.  With
    ``with_probabilities=True`` each entry is a ``(positions,
    probabilities)`` pair carrying the verification stage's exact products.
    """
    if not code_lists:
        return []
    first = parts[0][0]
    split = _SplitBatch(first.data.scheme, code_lists, both_sides=first.use_grid)
    # Each candidate travels as one combined (row, start) key.
    stride = len(source) + 1
    key_parts = [np.empty(0, dtype=np.int64)]
    for index, offset, core_end in parts:
        for rows, starts in _leaf_candidates(split, index, offset):
            owned = (starts >= offset) & (starts < core_end)
            key_parts.append(rows[owned] * stride + starts[owned])
    # Leaves sampled at one minimizer from several estimation strings give
    # the same start: one sort with a first-of-run mask (np.unique) drops
    # the repeats and orders the candidates by row, then by start.
    rows, starts = np.divmod(np.unique(np.concatenate(key_parts)), stride)
    return verify_candidate_batches(
        source, z, code_lists, rows, starts, with_probabilities=with_probabilities
    )


class _SplitBatch:
    """A batch split at its patterns' leftmost minimizers (the query's stage 1).

    Built once per batch and shared by every leaf collection the batch
    searches: the minimizer offsets, the rows searching each side (the
    longer piece of each pattern for the simple query, both pieces for the
    grid query), the pieces as views, and their packed search keys for each
    letter width the collections use.
    """

    def __init__(self, scheme: MinimizerScheme, code_lists: list, *, both_sides: bool) -> None:
        self.patterns = code_lists
        self.lengths = np.fromiter(
            map(len, code_lists), dtype=np.int64, count=len(code_lists)
        )
        self.mus = scheme.leftmost_pattern_minimizers(code_lists)
        if both_sides:
            every = np.arange(len(code_lists), dtype=np.int64)
            self.rows = {"forward": every, "backward": every}
        else:
            # The forward piece has m - mu letters, the backward one mu + 1.
            forward = self.lengths - self.mus >= self.mus + 1
            self.rows = {
                "forward": forward.nonzero()[0],
                "backward": (~forward).nonzero()[0],
            }
        self._pieces: dict[str, list] = {}
        self._bounds: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}

    def pieces(self, side: str) -> list:
        """The pieces searched on ``side``, in the order of ``rows[side]``.

        The forward piece reads rightward from the minimizer, the backward
        piece leftward (reversed); both are views, never copies.
        """
        if side not in self._pieces:
            patterns = self.patterns
            mus = self.mus.tolist()
            rows = self.rows[side].tolist()
            if side == "forward":
                self._pieces[side] = [patterns[row][mus[row]:] for row in rows]
            else:
                self._pieces[side] = [patterns[row][mus[row]::-1] for row in rows]
        return self._pieces[side]

    def bounds(self, side: str, letter_bytes: int) -> tuple[np.ndarray, np.ndarray]:
        """Packed low/high search keys of the side's pieces (array variants)."""
        key = (side, letter_bytes)
        if key not in self._bounds:
            letters = piece_letters(self.pieces(side), LeafCollection.SEARCH_PREFIX_LIMIT)
            self._bounds[key] = piece_bounds(letters, letter_bytes)
        return self._bounds[key]


def _piece_ranges(split: _SplitBatch, side: str, fits: np.ndarray, index, collection):
    """Rows of ``side`` whose pattern fits the part, and their leaf ranges.

    The tree variants descend the collection's compacted trie once per
    piece; the array variants binary-search its packed leaf keys for the
    whole batch at once, with keys the split packed once for every
    collection of the same letter width.  Both give the same non-empty
    ranges.
    """
    side_rows = split.rows[side]
    keep = fits[side_rows]
    pieces = [
        piece for piece, fitting in zip(split.pieces(side), keep.tolist()) if fitting
    ]
    if index.use_trie:
        trie = collection.build_trie()
        ranges = np.array([trie.descend(piece) for piece in pieces], dtype=np.int64)
        return side_rows[keep], ranges.reshape(-1, 2)
    low, high = split.bounds(side, collection._letter_bytes)
    return side_rows[keep], collection.prefix_range_many(pieces, (low[keep], high[keep]))


def _leaf_candidates(split: _SplitBatch, index, offset: int):
    """The query's stage 2 over one part: yields candidate ``(rows, starts)``.

    Starts are shifted by ``offset`` into the caller's coordinates.  A
    pattern longer than the part's string cannot occur in it, so its row
    skips the part.
    """
    data = index.data
    fits = split.lengths <= len(index.source)
    mus = split.mus
    if index.use_grid:
        rows, forward_ranges = _piece_ranges(split, "forward", fits, index, data.forward)
        _, backward_ranges = _piece_ranges(split, "backward", fits, index, data.backward)
        positions = data.forward.positions
        for row, (flo, fhi), (blo, bhi) in zip(
            rows.tolist(), forward_ranges.tolist(), backward_ranges.tolist()
        ):
            if flo >= fhi or blo >= bhi:
                continue
            points = index.grid.report(flo, fhi, blo, bhi)
            if points:
                xs = np.fromiter((x for x, _ in points), dtype=np.int64, count=len(points))
                starts = positions[xs] + (offset - int(mus[row]))
                yield np.full(len(points), row, dtype=np.int64), starts
        return
    for side, collection in (("forward", data.forward), ("backward", data.backward)):
        if not len(split.rows[side]):
            continue
        rows, ranges = _piece_ranges(split, side, fits, index, collection)
        lo = ranges[:, 0]
        hi = ranges[:, 1]
        counts = hi - lo
        if counts.any():
            starts = collection.positions[_concat_ranges(lo, hi)] + (
                offset - mus[rows]
            ).repeat(counts)
            yield rows.repeat(counts), starts


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
