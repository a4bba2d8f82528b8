"""The vectorized batch query front-end and the minimizer batch strategy.

Serving heavy query traffic one pattern at a time leaves most of the work in
Python-level loops: every pattern re-derives its minimizer, walks a search
structure letter by letter and verifies each candidate with a per-position
probability product.  The batch path vectorises all of it:

* patterns are deduplicated once and answered once (shared candidate-dedup);
* leftmost minimizers of the whole batch come from a single vectorised
  argmin (:meth:`MinimizerScheme.leftmost_pattern_minimizers`);
* leaf ranges of all query pieces are found with two ``np.searchsorted``
  calls over the leaves' packed search keys
  (:meth:`LeafCollection.prefix_range_many`, the same search a single
  pattern's scalar query runs on the array variants);
* candidate occurrence positions are gathered with array slices and verified
  in bulk through the source's log-probability cache, grouped by pattern
  length (:func:`~repro.indexes.verification.verify_candidate_batches`).

:class:`BatchQueryEngine` is the compatibility front door (every
:class:`~repro.indexes.base.UncertainStringIndex` exposes it as
``index.match_many(patterns)``); since the planner/executor refactor it is a
thin wrapper around :class:`~repro.indexes.query.QueryPlanner`, which owns
validation, deduplication and strategy choice for *all* query modes.  Index
families plug their batch strategies in through the ``_batch_locate`` /
``_batch_locate_probs`` hooks (the minimizer indexes use
:func:`locate_minimizer_batch` below; the WST/WSA baselines share the
deduplication and loop their per-pattern query).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .query import Query, QueryPlanner
from .verification import verify_candidate_batches

__all__ = ["BatchQueryEngine", "locate_minimizer_batch"]


class BatchQueryEngine:
    """Batched ``locate`` front-end over any uncertain-string index.

    Kept as the stable entry point of the original batch API
    (``match_many`` + :attr:`last_stats`); planning, validation and strategy
    choice live in the shared :class:`~repro.indexes.query.QueryPlanner`,
    so the engine answers exactly like ``index.query_many`` in ``locate``
    mode.
    """

    def __init__(self, index) -> None:
        self._planner = QueryPlanner(index)
        self.last_stats: dict[str, int] = {}

    @property
    def index(self):
        """The wrapped index."""
        return self._planner.index

    @property
    def planner(self) -> QueryPlanner:
        """The underlying query planner (rich statistics, all modes)."""
        return self._planner

    def match_many(self, patterns: Sequence) -> list[list[int]]:
        """Occurrence lists of every pattern, in input order.

        Each entry equals ``index.locate(pattern)`` exactly; invalid patterns
        (empty, shorter than the index's minimum length, letters outside the
        alphabet) raise the same :class:`~repro.errors.PatternError` the
        per-pattern path raises.
        """
        results = self._planner.execute([Query(pattern) for pattern in patterns])
        stats = self._planner.last_stats
        self.last_stats = {
            "patterns": stats["patterns"],
            "unique_patterns": stats["unique_patterns"],
            "generation": stats.get("generation", 0),
        }
        return [result.positions for result in results]


def locate_minimizer_batch(
    index, code_lists: list, *, with_probabilities: bool = False
):
    """Batch query strategy of the minimizer-based indexes.

    Implements the Section-5 simple query (longer piece + verification) and
    the Theorem-9 grid query over a whole batch: minimizers, leaf ranges,
    candidate gathering and verification are all array operations; only the
    per-pattern grid reporting remains scalar.  With
    ``with_probabilities=True`` the verification stage reports each
    surviving occurrence's exact probability product alongside its position
    (``(positions, probabilities)`` pairs instead of bare position lists).
    """
    data = index.data
    source = index.source
    z = index.z
    if not code_lists:
        return []
    arrays = [np.asarray(codes, dtype=np.int64) for codes in code_lists]
    mus = [int(mu) for mu in data.scheme.leftmost_pattern_minimizers(arrays)]
    # The forward piece reads rightward from the minimizer, the backward
    # piece leftward (reversed); both are views, never copies.
    forward_pieces = [arr[mu:] for arr, mu in zip(arrays, mus)]
    backward_pieces = [arr[mu::-1] for arr, mu in zip(arrays, mus)]
    candidates_per_row: list = [None] * len(code_lists)

    if index.use_grid:
        forward_ranges = data.forward.prefix_range_many(forward_pieces)
        backward_ranges = data.backward.prefix_range_many(backward_pieces)
        forward_positions = data.forward.positions
        for row, mu in enumerate(mus):
            flo, fhi = forward_ranges[row]
            blo, bhi = backward_ranges[row]
            if flo >= fhi or blo >= bhi:
                continue
            points = index._grid.report(int(flo), int(fhi), int(blo), int(bhi))
            if not points:
                continue
            xs = np.fromiter((x for x, _ in points), dtype=np.int64, count=len(points))
            candidates_per_row[row] = np.unique(forward_positions[xs] - mu)
        return verify_candidate_batches(
            source, z, code_lists, candidates_per_row,
            with_probabilities=with_probabilities,
        )

    # Simple query: search only the longer piece of each pattern, batched per
    # collection so each side is one vectorised range computation.
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
        ranges = collection.prefix_range_many([pieces[row] for row in rows])
        positions = collection.positions
        for (lo, hi), row in zip(ranges, rows):
            if lo < hi:
                candidates_per_row[row] = np.unique(
                    positions[int(lo) : int(hi)] - mus[row]
                )
    return verify_candidate_batches(
        source, z, code_lists, candidates_per_row,
        with_probabilities=with_probabilities,
    )
