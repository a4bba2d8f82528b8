"""The query model and the unified planner/executor of every index variant.

Every query of every index — one pattern or a batch, any mode, monolithic
or sharded — runs through one pipeline:

* :class:`Query` describes a request: a pattern, a :class:`QueryMode`
  (``exists`` / ``count`` / ``locate`` / ``locate_probs`` / ``topk``), an
  optional per-query threshold override ``z`` and an optional multi-z sweep
  ``zs``;
* :class:`QueryResult` carries the answer — occurrence positions **and**
  their exact occurrence probabilities, which the verification stage used to
  compute and throw away;
* :class:`QueryPlanner` turns a batch of queries into an
  :class:`ExecutionPlan` (coerce + validate once, deduplicate patterns) and
  answers its distinct patterns with one call of the index's
  ``_batch_locate`` hook, or of ``_batch_locate_probs`` for the patterns a
  probability-reporting query references.  A single query is a batch of
  one; a sharded minimizer index splits the batch once, searches every
  shard's leaves and verifies once, and a sharded baseline fans it out
  across its shards.

Exactness contract: ``locate`` positions equal the brute-force
``Occ_{1/z}`` oracle, and every reported probability equals the brute-force
left-to-right ``float64`` product ``p(P[0]) · p(P[1]) · ...`` exactly (see
:func:`~repro.indexes.verification.exact_occurrence_products`).

Threshold overrides answer *stricter* thresholds only: an occurrence valid
for ``z' <= z`` is necessarily valid for the built ``z``, so the planner
filters the indexed answer; ``z' > z`` would require occurrences the index
never stored and raises :class:`~repro.errors.QueryError`.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..core.numerics import solid_probability_mask, validate_threshold
from ..errors import PatternError, QueryError
from .base import coerce_pattern_array

__all__ = ["QueryMode", "Query", "QueryResult", "ExecutionPlan", "QueryPlanner"]


class QueryMode(str, Enum):
    """What a query asks for about its pattern's z-valid occurrences."""

    #: Is there at least one occurrence?
    EXISTS = "exists"
    #: How many occurrences are there?
    COUNT = "count"
    #: The sorted occurrence positions (the classic query).
    LOCATE = "locate"
    #: The sorted positions together with their occurrence probabilities.
    LOCATE_PROBS = "locate_probs"
    #: The ``k`` most probable occurrences, most probable first.
    TOPK = "topk"


#: Modes whose results carry per-occurrence probabilities.
_PROBABILITY_MODES = (QueryMode.LOCATE_PROBS, QueryMode.TOPK)


def _integral(value) -> bool:
    """An integer or an integral float (JSON ``2.0``); bools and ``2.7`` are not."""
    if isinstance(value, bool):
        return False
    if isinstance(value, numbers.Integral):
        return True
    return isinstance(value, numbers.Real) and float(value).is_integer()


def _threshold(field: str, value) -> float:
    """A ``z`` / ``zs`` entry as a float; bools and non-numbers (``"4"``) are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise QueryError(f"{field} must be a number, got {value!r}")
    return validate_threshold(value)


@dataclass(frozen=True)
class Query:
    """One query request (pattern + mode + optional threshold overrides).

    ``z`` answers at a single stricter threshold; ``zs`` sweeps several
    thresholds in one request (the result then carries one sub-result per
    z in :attr:`QueryResult.sweep`).  The two are mutually exclusive.
    """

    pattern: object
    mode: QueryMode = QueryMode.LOCATE
    k: int | None = None
    z: float | None = None
    zs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        try:
            mode = QueryMode(self.mode)
        except ValueError:
            known = ", ".join(m.value for m in QueryMode)
            raise QueryError(
                f"unknown query mode {self.mode!r}; known modes: {known}"
            ) from None
        object.__setattr__(self, "mode", mode)
        if mode is QueryMode.TOPK:
            k = self.k
            if k is not None and not _integral(k):
                raise QueryError(f"k must be an integer, got {k!r}")
            if k is None or k < 1:
                raise QueryError("topk queries need k >= 1")
            object.__setattr__(self, "k", int(k))
        elif self.k is not None:
            raise QueryError(
                f"k is only meaningful for topk queries, not {mode.value!r}"
            )
        if self.z is not None and self.zs is not None:
            raise QueryError("give either a z override or a multi-z sweep, not both")
        if self.z is not None:
            object.__setattr__(self, "z", _threshold("z", self.z))
        if self.zs is not None:
            if isinstance(self.zs, (str, bytes)) or not isinstance(self.zs, Iterable):
                raise QueryError(f"zs must be a list of numbers, got {self.zs!r}")
            zs = tuple(_threshold("zs", value) for value in self.zs)
            if not zs:
                raise QueryError("a multi-z sweep needs at least one z value")
            object.__setattr__(self, "zs", zs)


@dataclass
class QueryResult:
    """The answer to one :class:`Query` (treat as read-only).

    ``count`` and ``exists`` are always filled for single-z results;
    ``positions`` / ``probabilities`` are filled according to the mode
    (``topk`` results are ordered most-probable-first, position-ascending on
    ties; every other mode reports positions in ascending order).  Multi-z
    sweep results have ``z is None`` and one single-z result per requested
    threshold in :attr:`sweep`.
    """

    pattern: object
    mode: QueryMode
    z: float | None
    count: int | None = None
    exists: bool = False
    positions: list[int] | None = None
    probabilities: list[float] | None = None
    sweep: tuple["QueryResult", ...] | None = None

    def as_dict(self) -> dict:
        """JSON-ready dictionary (``None`` payload fields are omitted)."""
        payload: dict = {"mode": self.mode.value}
        if isinstance(self.pattern, str):
            payload["pattern"] = self.pattern
        else:
            payload["pattern"] = [int(code) for code in self.pattern]
        if self.sweep is not None:
            payload["exists"] = self.exists
            payload["sweep"] = [result.as_dict() for result in self.sweep]
            return payload
        payload["z"] = self.z
        payload["count"] = self.count
        payload["exists"] = self.exists
        if self.positions is not None:
            payload["positions"] = self.positions
        if self.probabilities is not None:
            payload["probabilities"] = self.probabilities
        return payload


@dataclass
class ExecutionPlan:
    """A validated, deduplicated batch of queries.

    ``fan_out`` records whether the index answers the batch across
    shards.  ``assignment[i]`` maps query ``i`` to its slot in
    ``unique_codes``; ``z_values[i]`` lists the effective thresholds the
    query must be answered at; ``probability_slots`` are the unique-pattern
    slots referenced by at least one probability-reporting query (only those
    pay for exact products).
    """

    queries: list[Query]
    prepared: list[np.ndarray]
    unique_codes: list[np.ndarray]
    assignment: list[int]
    z_values: list[tuple[float, ...]]
    probability_slots: frozenset[int]
    fan_out: bool


class QueryPlanner:
    """Plans and executes query batches over one index.

    Every public query entry point of the library —
    ``UncertainStringIndex.locate/count/exists/query/query_many/match_many``
    and the serving layer's :class:`~repro.service.QueryService` — funnels
    through this class, so every variant (monolithic or sharded, freshly
    built or store-loaded) validates, deduplicates and answers queries
    identically.
    """

    def __init__(self, index) -> None:
        self._index = index
        self.last_stats: dict = {}

    @property
    def index(self):
        """The planned-over index."""
        return self._index

    # -- planning ---------------------------------------------------------------
    def plan(self, queries: Sequence) -> ExecutionPlan:
        """Validate and deduplicate ``queries``.

        Entries may be :class:`Query` objects or bare patterns (answered in
        ``locate`` mode).  Pattern validation mirrors the index's
        ``_prepare_pattern`` exactly — including its error messages — but
        costs one concatenated min/max reduction for the whole batch.
        """
        index = self._index
        normalized = [
            query if isinstance(query, Query) else Query(query) for query in queries
        ]
        prepared = [
            coerce_pattern_array(query.pattern, index.source, validate=False)
            for query in normalized
        ]
        self._validate_patterns(prepared)
        index_z = index.z
        z_values: list[tuple[float, ...]] = []
        for query in normalized:
            if query.zs is not None:
                values = query.zs
            elif query.z is not None:
                values = (query.z,)
            else:
                values = (index_z,)
            for value in values:
                if value > index_z:
                    raise QueryError(
                        f"query threshold z={value:g} is looser than the index's "
                        f"z={index_z:g}; occurrences with probability below "
                        f"1/{index_z:g} are not indexed"
                    )
            z_values.append(values)
        unique_codes: list[np.ndarray] = []
        assignment: list[int] = []
        slots: dict[bytes, int] = {}
        for codes in prepared:
            key = codes.tobytes()
            slot = slots.get(key)
            if slot is None:
                slot = len(unique_codes)
                slots[key] = slot
                unique_codes.append(codes)
            assignment.append(slot)
        probability_slots = frozenset(
            assignment[position]
            for position, query in enumerate(normalized)
            if query.mode in _PROBABILITY_MODES
        )
        fan_out = bool(getattr(index, "shard_indexes", None))
        return ExecutionPlan(
            queries=normalized,
            prepared=prepared,
            unique_codes=unique_codes,
            assignment=assignment,
            z_values=z_values,
            probability_slots=probability_slots,
            fan_out=fan_out,
        )

    def _validate_patterns(self, prepared: list[np.ndarray]) -> None:
        """Whole-batch validation with the canonical per-pattern errors.

        The happy path costs one concatenation and one min/max reduction;
        when anything is invalid, every pattern is re-validated through the
        index's ``_prepare_pattern`` so the raised
        :class:`~repro.errors.PatternError` names the first bad pattern the
        way a one-pattern query would.
        """
        index = self._index
        minimum = max(1, index.minimum_pattern_length)
        maximum = index.maximum_pattern_length
        valid = all(
            len(codes) >= minimum and (maximum is None or len(codes) <= maximum)
            for codes in prepared
        )
        if valid and prepared:
            flat = np.concatenate(prepared)
            if len(flat) and (
                int(flat.min()) < 0 or int(flat.max()) >= index.source.sigma
            ):
                valid = False
        if not valid:
            for codes in prepared:  # raise the canonical per-pattern error
                index._prepare_pattern(codes)
            raise PatternError("invalid pattern batch")  # pragma: no cover

    # -- execution --------------------------------------------------------------
    def execute(self, queries: Sequence) -> list[QueryResult]:
        """Answer a batch of queries (one :class:`QueryResult` per entry)."""
        plan = self.plan(queries)
        index = self._index
        base = self._run_base(plan)
        results: list[QueryResult] = []
        subqueries = 0
        for query, codes, slot, values in zip(
            plan.queries, plan.prepared, plan.assignment, plan.z_values
        ):
            positions, probabilities = base[slot]
            per_z = [
                self._assemble(query, codes, z, positions, probabilities)
                for z in values
            ]
            subqueries += len(per_z)
            if query.zs is not None:
                results.append(
                    QueryResult(
                        pattern=query.pattern,
                        mode=query.mode,
                        z=None,
                        exists=any(result.exists for result in per_z),
                        sweep=tuple(per_z),
                    )
                )
            else:
                results.append(per_z[0])
        self.last_stats = {
            "patterns": len(plan.queries),
            "unique_patterns": len(plan.unique_codes),
            "subqueries": subqueries,
            "fan_out": plan.fan_out,
            # Which state of a mutable index answered this batch — lets the
            # serving layer correlate answers with applied update batches.
            "generation": getattr(index, "generation", 0),
        }
        return results

    def _run_base(self, plan: ExecutionPlan) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Occurrences (and probabilities, when needed) of every distinct pattern.

        All answers are computed at the *index's* threshold; per-query
        overrides filter them in :meth:`_assemble`.  Exact probability
        products are computed only for the slots a probability-reporting
        query actually references — a single ``topk`` in a large ``locate``
        batch does not tax the rest of the batch.
        """
        index = self._index
        unique = plan.unique_codes
        if not unique:
            return []
        probability_slots = plan.probability_slots
        base: list = [None] * len(unique)
        with_probs = sorted(probability_slots)
        plain = [slot for slot in range(len(unique)) if slot not in probability_slots]
        if with_probs:
            answers = index._batch_locate_probs([unique[slot] for slot in with_probs])
            for slot, (positions, probabilities) in zip(with_probs, answers):
                base[slot] = (
                    np.asarray(positions, dtype=np.int64),
                    np.asarray(probabilities, dtype=np.float64),
                )
        if plain:
            answers = index._batch_locate([unique[slot] for slot in plain])
            for slot, positions in zip(plain, answers):
                base[slot] = (np.asarray(positions, dtype=np.int64), None)
        return base

    def _assemble(
        self,
        query: Query,
        codes: np.ndarray,
        z: float,
        positions: np.ndarray,
        probabilities: np.ndarray | None,
    ) -> QueryResult:
        """Fill one single-z :class:`QueryResult` from the base answer."""
        index = self._index
        if z != index.z:
            # Filter with the same log-cache probabilities and tolerance rule
            # the brute-force oracle uses, so overridden answers equal
            # brute_force_occurrences(source, pattern, z) exactly.
            oracle = index.source.occurrence_probabilities(codes, positions)
            mask = solid_probability_mask(oracle, z)
            positions = positions[mask]
            if probabilities is not None:
                probabilities = probabilities[mask]
        count = int(len(positions))
        exists = count > 0
        mode = query.mode
        result = QueryResult(
            pattern=query.pattern, mode=mode, z=z, count=count, exists=exists
        )
        if mode is QueryMode.LOCATE:
            result.positions = [int(position) for position in positions]
        elif mode is QueryMode.LOCATE_PROBS:
            result.positions = [int(position) for position in positions]
            result.probabilities = [float(value) for value in probabilities]
        elif mode is QueryMode.TOPK:
            if count:
                order = np.lexsort((positions, -probabilities))[: query.k]
            else:
                order = np.array([], dtype=np.int64)
            result.positions = [int(positions[i]) for i in order]
            result.probabilities = [float(probabilities[i]) for i in order]
        return result
