"""Sharded indexes: overlapping chunks built in parallel, queried as one.

A :class:`ShardedIndex` splits a weighted string into ``shard_count``
near-equal chunks and builds one monolithic index (any registered kind) per
chunk.  Consecutive shards overlap by ``max_pattern_len - 1`` positions, so
every occurrence of a pattern of length ``m <= max_pattern_len`` is fully
contained in at least one shard; each shard *owns* the occurrences starting
inside its core (non-overlap) range, which makes the merged answer an exact,
duplicate-free reconstruction of the monolithic answer.

Minimizer shards (every shard shares one :class:`MinimizerScheme`, checked
at construction and on load) are leaf collections with offsets, queried by
the one minimizer pipeline of :func:`~repro.indexes.mwst.query_leaf_collections`:
the batch is split at its leftmost minimizers once, every shard's leaves are
searched for the pieces, hits are shifted by the shard start and kept only
inside the shard's core, repeats are dropped in one vectorised step, and the
whole batch is verified once against the parent source — the same rows the
shards were built from, so answers and probabilities are bit-identical to
the monolithic index.  Baseline shards (WST / WSA) answer exactly on their
own, so their batch fans out per shard and the owned starts are merged.

Shard construction is embarrassingly parallel: with ``workers > 1`` the
shards are built in separate processes via :mod:`multiprocessing` and the
finished indexes are shipped back, which is what makes the build wall-clock
scale with cores (and, later, with machines).  Patterns longer than
``max_pattern_len`` could straddle more than one shard and are rejected with
the same :class:`~repro.errors.PatternError` discipline as too-short
patterns on the minimizer indexes.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..core.weighted_string import WeightedString
from ..errors import ConstructionError
from .base import UncertainStringIndex
from .mwst import MinimizerIndexBase, query_leaf_collections
from .space import IndexStats

__all__ = ["Shard", "ShardedIndex", "plan_shards"]


@dataclass(frozen=True)
class Shard:
    """One chunk of the shard plan.

    The shard's index covers global positions ``[start, end)``; the shard
    owns occurrences starting in ``[start, core_end)`` (its core range), and
    ``[core_end, end)`` is the overlap into the next shard's core.
    """

    start: int
    core_end: int
    end: int

    @property
    def length(self) -> int:
        """Number of positions the shard's index covers."""
        return self.end - self.start


def plan_shards(n: int, shard_count: int, overlap: int) -> list[Shard]:
    """Split ``[0, n)`` into ``shard_count`` cores with ``overlap`` lookahead.

    Cores are near-equal; each shard extends ``overlap`` positions past its
    core (clamped to ``n``) so patterns starting in the core never overhang
    the shard.
    """
    if shard_count <= 0:
        raise ConstructionError("shard_count must be positive")
    if overlap < 0:
        raise ConstructionError("shard overlap cannot be negative")
    shard_count = min(shard_count, n) or 1
    bounds = [round(index * n / shard_count) for index in range(shard_count + 1)]
    return [
        Shard(start=bounds[index], core_end=bounds[index + 1],
              end=min(bounds[index + 1] + overlap, n))
        for index in range(shard_count)
    ]


def _build_shard(payload):
    """Build one shard's index (module-level so worker processes can import it)."""
    matrix, alphabet, z, kind, ell, options = payload
    from .registry import build_index

    source = WeightedString(matrix, alphabet)
    return build_index(source, z, kind=kind, ell=ell, **options)


def _leaf_parts(shards: list[Shard], indexes: list[UncertainStringIndex]):
    """The shards as leaf parts of one minimizer query, or ``None`` for baselines.

    One query splits every pattern once for all shards, so every shard must
    be a minimizer index of one kind with one :class:`MinimizerScheme` (ℓ,
    σ, k and order); anything else raises :class:`ConstructionError`.
    """
    if not any(isinstance(index, MinimizerIndexBase) for index in indexes):
        return None
    kinds = {type(index).__name__ for index in indexes}
    if len(kinds) > 1:
        raise ConstructionError(f"a sharded index mixes index kinds {sorted(kinds)}")
    schemes = {
        (scheme.ell, scheme.sigma, scheme.k, scheme.order)
        for scheme in (index.data.scheme for index in indexes)
    }
    if len(schemes) > 1:
        raise ConstructionError(
            f"the shards use different minimizer schemes {sorted(schemes)}; "
            "one query splits each pattern once for every shard"
        )
    return [
        (index, shard.start, shard.core_end) for shard, index in zip(shards, indexes)
    ]


class ShardedIndex(UncertainStringIndex):
    """A horizontally sharded uncertain-string index.

    Built through :meth:`build` (or ``build_index(..., shards=N)``); answers
    are bit-identical to the equivalent monolithic index for every pattern of
    length in ``[minimum_pattern_length, max_pattern_len]``.  An update is
    routed to the shards whose range it touches, and each of them repairs
    itself with its own strategy (see :meth:`_rebuild_updated`).
    """

    name = "SHARDED"

    def __init__(
        self,
        source: WeightedString,
        z: float,
        shards: list[Shard],
        indexes: list[UncertainStringIndex],
        kind: str,
        max_pattern_len: int,
        stats: IndexStats,
        *,
        generations: list[int] | None = None,
    ) -> None:
        super().__init__(source, z)
        self._shards = shards
        self._indexes = indexes
        self._kind = kind
        self._max_pattern_len = max_pattern_len
        self._stats = stats
        self._generations = (
            list(generations) if generations is not None else [0] * len(shards)
        )
        self.name = f"SHARDED[{kind}]"
        self._leaf_parts = _leaf_parts(shards, indexes)

    # -- construction -----------------------------------------------------------------
    @classmethod
    def build(
        cls,
        source: WeightedString,
        z: float,
        *,
        kind: str = "MWSA",
        ell: int | None = None,
        shard_count: int = 1,
        workers: int | None = None,
        max_pattern_len: int | None = None,
        **options,
    ) -> "ShardedIndex":
        """Build ``shard_count`` per-chunk indexes of ``kind`` (in parallel).

        ``max_pattern_len`` fixes the overlap (``max_pattern_len - 1``) and
        the largest supported query length; it defaults to ``2·ell`` for the
        minimizer kinds (covering the workloads of the paper's figures) and
        must be given explicitly for the baselines.  ``workers`` > 1 builds
        the shards in that many processes.  Whole-string stages
        (``estimation=`` / ``data=``) raise :class:`ConstructionError`: each
        shard estimates and samples its own chunk, and indexing the whole
        string's leaves against a slice would answer wrongly.
        """
        from .registry import get_spec

        for stage in ("estimation", "data"):
            if options.pop(stage, None) is not None:
                raise ConstructionError(
                    f"a sharded build cannot use a whole-string {stage}=; "
                    "each shard builds its own from its chunk"
                )

        spec = get_spec(kind)  # validate the inner kind up front
        if spec.needs_ell and ell is None:
            raise ConstructionError(f"index kind {kind!r} requires the ell parameter")
        if max_pattern_len is None:
            if ell is None:
                raise ConstructionError(
                    "sharded builds need max_pattern_len (or ell to default it "
                    "to 2*ell): the shard overlap must bound the query length"
                )
            max_pattern_len = 2 * ell
        if max_pattern_len < 1 or (ell is not None and max_pattern_len < ell):
            raise ConstructionError(
                f"max_pattern_len {max_pattern_len} cannot be smaller than the "
                f"minimum pattern length"
            )
        started = time.perf_counter()
        shards = plan_shards(len(source), shard_count, max_pattern_len - 1)
        payloads = [
            (
                source.matrix[shard.start : shard.end],
                source.alphabet,
                z,
                kind,
                ell,
                options,
            )
            for shard in shards
        ]
        if workers is not None and workers > 1 and len(shards) > 1:
            import multiprocessing

            with multiprocessing.Pool(min(workers, len(shards))) as pool:
                indexes = pool.map(_build_shard, payloads)
        else:
            indexes = [_build_shard(payload) for payload in payloads]
        stats = IndexStats(
            name=f"SHARDED[{kind}]",
            index_size_bytes=sum(index.stats.index_size_bytes for index in indexes),
            construction_space_bytes=max(
                (index.stats.construction_space_bytes for index in indexes), default=0
            ),
            construction_seconds=time.perf_counter() - started,
            counters={
                "shards": len(shards),
                "kind": kind,
                "overlap": max_pattern_len - 1,
                "workers": workers or 1,
                "shard_lengths": [shard.length for shard in shards],
            },
        )
        return cls(source, z, shards, indexes, kind, max_pattern_len, stats)

    # -- shape ------------------------------------------------------------------------
    @property
    def shards(self) -> list[Shard]:
        """The shard plan (for inspection, storage and tests)."""
        return self._shards

    @property
    def shard_indexes(self) -> list[UncertainStringIndex]:
        """The per-shard indexes, in shard order."""
        return self._indexes

    @property
    def kind(self) -> str:
        """The per-shard index kind."""
        return self._kind

    @property
    def generations(self) -> list[int]:
        """Per-shard generations, bumped each time an update repairs the shard.

        The binary store stamps these into saved sharded indexes so a
        persisted index can be refreshed shard by shard: only shards whose
        generation moved since the last save are rewritten.
        """
        return list(self._generations)

    @property
    def minimum_pattern_length(self) -> int:
        return max(
            (index.minimum_pattern_length for index in self._indexes), default=1
        )

    @property
    def maximum_pattern_length(self) -> int:
        return self._max_pattern_len

    # -- updates ----------------------------------------------------------------------
    def dirty_shards(self, positions) -> list[int]:
        """Shard numbers whose covered range contains an updated position.

        A shard's index is built over ``[start, end)`` — core *plus* the
        ``max_pattern_len - 1`` overlap — so an update anywhere in that range
        invalidates it.  An update inside an overlap region therefore dirties
        both the shard that owns the position and the predecessor whose
        overlap reaches into it; updates elsewhere dirty exactly one shard.
        """
        updated = sorted({int(position) for position in positions})
        dirty = []
        for number, shard in enumerate(self._shards):
            low = bisect_left(updated, shard.start)
            if low < len(updated) and updated[low] < shard.end:
                dirty.append(number)
        return dirty

    def _rebuild_updated(self, positions) -> dict:
        """Dirty-shard repair: each dirty shard repairs itself, locally.

        Every shard whose covered range holds an updated position (see
        :meth:`dirty_shards`) receives the parent's new rows at shard-local
        positions and runs its own repair: a minimizer shard resumes its
        estimation from its own checkpoints and re-derives only the leaves
        that changed, the other kinds rebuild themselves in place.  The rows
        go in bit for bit (``normalize=False``): they were coerced once, by
        the parent, and normalising them again could move a last ulp and
        make the shard's estimation and leaves differ from those a fresh
        build derives from the parent's rows.
        Clean shards keep their structures untouched — their slice of the
        probability matrix did not change — so the merged answers stay
        bit-identical to a full rebuild over the mutated string.

        ``shard_repairs`` reports each dirty shard's own strategy
        (``localized`` or ``full-rebuild``), where its estimation replay
        started (``replayed_from``) and reconverged (``converged_at``, both
        shard-local; ``None`` when not applicable) and how many leaves it
        re-derived.
        """
        dirty = self.dirty_shards(positions)
        matrix = self._source.matrix
        repairs = []
        for number in dirty:
            shard = self._shards[number]
            index = self._indexes[number]
            local = [
                position - shard.start
                for position in positions
                if shard.start <= position < shard.end
            ]
            index.source.apply_updates(
                [(position, matrix[shard.start + position]) for position in local],
                normalize=False,
            )
            details = index._rebuild_updated(local)
            repairs.append(
                {
                    "shard": number,
                    "strategy": details.get("strategy", "full-rebuild"),
                    "replayed_from": details.get("replayed_from"),
                    "converged_at": details.get("converged_at"),
                    "rederived_leaves": details.get("rederived_leaves"),
                }
            )
            self._generations[number] += 1
        self._stats.index_size_bytes = sum(
            index.stats.index_size_bytes for index in self._indexes
        )
        self._stats.counters["generations"] = list(self._generations)
        return {
            "strategy": "dirty-shards",
            "rebuilt_shards": dirty,
            "clean_shards": len(self._shards) - len(dirty),
            "shard_repairs": repairs,
        }

    # -- queries ----------------------------------------------------------------------
    def _batch_locate(self, code_lists: list) -> list[list[int]]:
        """Minimizer shards: one pipeline over every shard's leaves; baselines fan out."""
        if self._leaf_parts is not None:
            return query_leaf_collections(
                self._source, self._z, code_lists, self._leaf_parts
            )
        lengths = np.fromiter(map(len, code_lists), dtype=np.int64, count=len(code_lists))
        owned: list[list[int]] = [[] for _ in code_lists]
        for shard, index in zip(self._shards, self._indexes):
            rows = np.flatnonzero(lengths <= shard.length).tolist()
            if not rows:
                continue
            answers = index._batch_locate([code_lists[row] for row in rows])
            for row, local_positions in zip(rows, answers):
                # A global start belongs to the shard whose core holds it, and
                # shards come in position order, so each list stays sorted.
                starts = shard.start + np.asarray(local_positions, dtype=np.int64)
                owned[row].extend(starts[starts < shard.core_end].tolist())
        return owned

    def _batch_locate_probs(self, code_lists: list):
        """Probabilities come from the parent source's rows.

        They are the very same ``float64`` rows the shards were built from,
        so the products equal the monolithic index's bit for bit.
        """
        if self._leaf_parts is not None:
            return query_leaf_collections(
                self._source, self._z, code_lists, self._leaf_parts,
                with_probabilities=True,
            )
        return super()._batch_locate_probs(code_lists)
