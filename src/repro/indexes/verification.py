"""Verification of candidate occurrences.

The minimizer-based indexes report *candidate* positions that must be checked
against the weighted string (Section 3's false positives and Section 5's
simple query).  Two verifiers are provided:

* :func:`verify_against_source` — the O(m) direct product of probabilities,
  which is what the practical Section-5 query uses (random access to X);
* :class:`HeavyMismatchVerifier` — the O(log z)-flavoured check of Theorem 9
  that combines heavy-string prefix products with the ≤ log₂ z stored
  mismatches of a candidate factor.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..core.heavy import HeavyString
from ..core.numerics import (
    RELATIVE_TOLERANCE,
    is_solid_probability,
    solid_probability_mask,
    validate_threshold,
)
from ..core.weighted_string import WeightedString

__all__ = [
    "verify_against_source",
    "verify_candidates_against_source",
    "verify_candidate_batches",
    "exact_occurrence_products",
    "HeavyMismatchVerifier",
]


def exact_occurrence_products(
    source: WeightedString, pattern: Sequence[int], positions
) -> np.ndarray:
    """Exact occurrence probabilities of ``pattern`` at an array of starts.

    Unlike :meth:`WeightedString.occurrence_probabilities` — which sums the
    log-probability cache and exponentiates, and is the substrate of every
    *solidity decision* — this computes the direct left-to-right ``float64``
    product ``p(P[0]) · p(P[1]) · ...`` per start, bit-identical to the
    scalar :meth:`WeightedString.occurrence_probability` loop.  It is what
    every reported probability (``locate_probs`` / ``topk`` results) comes
    from, so reported values equal the brute-force O(n·m) oracle exactly.
    Out-of-range starts yield 0.0.
    """
    codes = np.asarray(pattern, dtype=np.int64)
    starts = np.asarray(positions, dtype=np.int64)
    m = len(codes)
    n = len(source)
    out = np.zeros(len(starts), dtype=np.float64)
    if m == 0:
        out[(starts >= 0) & (starts <= n)] = 1.0
        return out
    in_range = (starts >= 0) & (starts + m <= n)
    if not in_range.any():
        return out
    valid_starts = starts[in_range]
    gathered = source.matrix[
        valid_starts[:, None] + np.arange(m, dtype=np.int64)[None, :],
        codes[None, :],
    ]
    # np.multiply.reduce applies the multiplications left to right, exactly
    # like the scalar loop, so the products carry identical rounding.
    out[in_range] = np.multiply.reduce(gathered, axis=1)
    return out


def verify_against_source(
    source: WeightedString, pattern: Sequence[int], position: int, z: float
) -> bool:
    """Whether ``pattern`` has a z-valid occurrence at ``position`` (O(m))."""
    z = validate_threshold(z)
    return is_solid_probability(source.occurrence_probability(pattern, position), z)


def verify_candidates_against_source(
    source: WeightedString, pattern: Sequence[int], positions, z: float
) -> np.ndarray:
    """Boolean mask of the z-valid candidates among an array of positions.

    Batched counterpart of :func:`verify_against_source`: one gather over the
    source's log-probability cache verifies every candidate at once
    (O(B·m) array work instead of B Python-level probability products).
    Out-of-range candidates verify to False.
    """
    z = validate_threshold(z)
    probabilities = source.occurrence_probabilities(pattern, positions)
    return solid_probability_mask(probabilities, z)


def verify_candidate_batches(
    source: WeightedString,
    z: float,
    patterns: Sequence[Sequence[int]],
    rows,
    starts,
    *,
    with_probabilities: bool = False,
) -> list:
    """Verify the candidates of a whole pattern batch with grouped array ops.

    The candidates come flat: candidate ``i`` is start ``starts[i]`` of
    pattern ``patterns[rows[i]]``, ordered by row and then by start, without
    repeats.  Returns, for every pattern, the sorted list of its z-valid
    occurrence positions.  Candidates of patterns of equal length share one
    fancy-indexing gather over the source's log-probability cache, so the
    number of NumPy dispatches scales with the number of distinct pattern
    lengths, not with the batch size or the number of leaf collections the
    candidates came from.  Every minimizer-index query verifies through it,
    once per batch; :func:`verify_candidates_against_source` is its
    one-pattern sibling.

    With ``with_probabilities=True`` each entry becomes a
    ``(positions, probabilities)`` pair: the verification stage computes the
    per-occurrence products anyway, and the rich query modes
    (``locate_probs`` / ``topk``) surface them instead of discarding them.
    Reported values come from one extra exact-product gather per length
    group (:func:`exact_occurrence_products` semantics), while the solidity
    *decision* keeps using the log-cache probabilities — so ``locate``
    results stay bit-identical and reported probabilities match the
    brute-force product oracle exactly.
    """
    z = validate_threshold(z)
    count = len(patterns)
    rows = np.asarray(rows, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.fromiter(map(len, patterns), dtype=np.int64, count=count)
    n = len(source)
    solid = np.zeros(len(rows), dtype=bool)
    products = np.zeros(len(rows), dtype=np.float64) if with_probabilities else None
    if len(rows):
        codes = np.concatenate([np.asarray(p, dtype=np.int64) for p in patterns])
        offsets = lengths.cumsum() - lengths
        candidate_lengths = lengths[rows]
        log_matrix = source.log_matrix
        for m in set(lengths.tolist()):
            if m > n:
                continue  # every candidate overhangs the string: nothing is valid
            group = (candidate_lengths == m).nonzero()[0]
            if not len(group):
                continue
            group_starts = starts[group]
            # An out-of-range start reads a clamped, in-range window; the
            # comparison with its own start masks it out afterwards.
            clamped = np.minimum(np.maximum(group_starts, 0), n - m)
            columns = np.arange(m, dtype=np.int64)
            letter_rows = clamped[:, None] + columns
            letter_columns = codes[offsets[rows[group]][:, None] + columns]
            gathered = log_matrix[letter_rows, letter_columns]
            solid[group] = solid_probability_mask(np.exp(gathered.sum(axis=1)), z) & (
                clamped == group_starts
            )
            if with_probabilities:
                products[group] = np.multiply.reduce(
                    source.matrix[letter_rows, letter_columns], axis=1
                )
    kept_rows = rows[solid]
    bounds = kept_rows.searchsorted(np.arange(count + 1)).tolist()
    positions = starts[solid].tolist()
    results = [positions[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if with_probabilities:
        kept = products[solid]
        return [
            (result, kept[lo:hi]) for result, lo, hi in zip(results, bounds, bounds[1:])
        ]
    return results


class HeavyMismatchVerifier:
    """Verification via heavy prefix products plus per-position corrections.

    For a candidate occurrence of a pattern at ``position``, the occurrence
    probability equals the product of the heavy probabilities over the window
    multiplied, for every position where the pattern letter differs from the
    heavy letter, by ``p_i(pattern letter) / p_i(heavy letter)``.  When the
    pattern is solid there are at most ``log₂ z`` such corrections (Lemma 3),
    so the check costs O(log z) once the mismatching positions are known; a
    verifier that is handed the pattern letters simply scans them but only
    touches probabilities at mismatching positions.
    """

    def __init__(self, source: WeightedString, heavy: HeavyString | None = None) -> None:
        self._source = source
        self._heavy = heavy if heavy is not None else HeavyString(source)

    @property
    def heavy(self) -> HeavyString:
        """The heavy string used for the prefix products."""
        return self._heavy

    def occurrence_probability(self, pattern: Sequence[int], position: int) -> float:
        """Occurrence probability computed through the heavy decomposition."""
        m = len(pattern)
        if position < 0 or position + m > len(self._source):
            return 0.0
        log_probability = self._heavy.log_range_product(position, position + m)
        heavy_codes = self._heavy.codes
        for offset, code in enumerate(pattern):
            at = position + offset
            if code != heavy_codes[at]:
                letter_probability = self._source.probability(at, code)
                if letter_probability <= 0.0:
                    return 0.0
                log_probability += math.log(letter_probability) - math.log(
                    float(self._heavy.probabilities[at])
                )
        return math.exp(log_probability)

    def occurrence_log_probabilities(
        self, pattern: Sequence[int], positions
    ) -> np.ndarray:
        """Batched log occurrence probabilities via the heavy decomposition.

        The heavy log-prefix cache gives the base product of every candidate
        window with one subtraction; the per-position corrections (pattern
        letter ≠ heavy letter) are applied with masked array ops.  Candidates
        that overhang the string get ``-inf``.
        """
        codes = np.asarray(pattern, dtype=np.int64)
        starts = np.asarray(positions, dtype=np.int64)
        m = len(codes)
        out = np.full(len(starts), -np.inf, dtype=np.float64)
        if m == 0:
            out[(starts >= 0) & (starts <= len(self._source))] = 0.0
            return out
        in_range = (starts >= 0) & (starts + m <= len(self._source))
        if not in_range.any():
            return out
        valid_starts = starts[in_range]
        windows = valid_starts[:, None] + np.arange(m, dtype=np.int64)[None, :]
        base = self._heavy.log_range_products(valid_starts, valid_starts + m)
        mismatched = self._heavy.codes[windows] != codes[None, :]
        letter_logs = self._source.log_matrix[windows, codes[None, :]]
        corrections = np.where(
            mismatched, letter_logs - self._heavy.log_probabilities[windows], 0.0
        ).sum(axis=1)
        out[in_range] = base + corrections
        return out

    def is_valid(self, pattern: Sequence[int], position: int, z: float) -> bool:
        """Whether the candidate occurrence is z-valid."""
        z = validate_threshold(z)
        probability = self.occurrence_probability(pattern, position)
        return probability * z >= 1.0 - RELATIVE_TOLERANCE * max(1.0, probability * z)

    def valid_mask(self, pattern: Sequence[int], positions, z: float) -> np.ndarray:
        """Boolean mask of z-valid candidates (batched :meth:`is_valid`)."""
        z = validate_threshold(z)
        probabilities = np.exp(self.occurrence_log_probabilities(pattern, positions))
        return solid_probability_mask(probabilities, z)
