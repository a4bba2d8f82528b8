"""The character-level uncertainty model: weighted (uncertain) strings.

A weighted string ``X`` of length ``n`` over an alphabet ``Σ`` is a sequence
of ``n`` probability distributions over ``Σ`` (Section 2 of the paper).  The
class below stores the distributions as an ``(n × σ)`` ``numpy`` matrix and
provides the primitive operations every other component builds on: random
access to probabilities, occurrence probabilities of factors, solidity
checks, heavy letters, slicing and reversal.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from ..errors import WeightedStringError
from .alphabet import Alphabet
from .numerics import (
    is_solid_probability,
    solid_count,
    solid_probability_mask,
    validate_threshold,
)

__all__ = ["WeightedString"]

#: Tolerance for "each row must sum to 1".
_ROW_SUM_TOLERANCE = 1e-6


def _check_entries(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise WeightedStringError(
            "probabilities must be finite (no NaN or infinity)"
        )
    if np.any(values < 0.0):
        raise WeightedStringError("probabilities must be non-negative")


def _check_row_sums(sums: np.ndarray) -> None:
    if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOLERANCE):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise WeightedStringError(
            f"row {worst} sums to {sums[worst]:.6f}, expected 1.0 "
            "(pass normalize=True to rescale)"
        )


class WeightedString:
    """A weighted (uncertain) string: ``n`` distributions over ``Σ``.

    Parameters
    ----------
    probabilities:
        Array of shape ``(n, σ)``; ``probabilities[i, c]`` is the probability
        of the letter with code ``c`` occurring at position ``i``.  Rows must
        be non-negative and sum to 1 (within a small tolerance).
    alphabet:
        The alphabet giving meaning to the ``σ`` columns.
    normalize:
        If true, rows are rescaled to sum exactly to 1 instead of being
        rejected when their sum is off by more than the tolerance.

    Notes
    -----
    Positions are 0-based throughout the library (the paper uses 1-based
    positions).  A factor spanning paper positions ``[i..j]`` corresponds to
    the half-open Python range ``[i-1, j)``.
    """

    __slots__ = ("_probs", "_alphabet", "_log_probs", "_version", "_sparse")

    def __init__(
        self,
        probabilities: np.ndarray,
        alphabet: Alphabet,
        *,
        normalize: bool = False,
    ) -> None:
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.ndim != 2:
            raise WeightedStringError(
                f"probability matrix must be 2-dimensional, got shape {probs.shape}"
            )
        if probs.shape[1] != alphabet.size:
            raise WeightedStringError(
                f"matrix has {probs.shape[1]} columns but alphabet has "
                f"{alphabet.size} letters"
            )
        _check_entries(probs)
        if probs.shape[0]:
            sums = probs.sum(axis=1)
            if normalize:
                bad = sums <= 0.0
                if np.any(bad):
                    raise WeightedStringError(
                        "cannot normalize rows whose probabilities sum to 0"
                    )
                probs = probs / sums[:, None]
            else:
                _check_row_sums(sums)
        self._adopt(np.ascontiguousarray(probs), alphabet)

    def _adopt(self, probs: np.ndarray, alphabet: Alphabet) -> None:
        """Install an already validated, C-contiguous matrix."""
        probs.setflags(write=False)
        self._probs = probs
        self._alphabet = alphabet
        self._log_probs = None  # lazily filled log-probability cache
        self._version = 0  # bumped by every applied update batch
        self._sparse = None  # the CSR rows this string was decoded from

    # ------------------------------------------------------------------ #
    # constructors                                                        #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dicts(
        cls,
        distributions: Iterable[Mapping[str, float]],
        alphabet: Alphabet | None = None,
        *,
        normalize: bool = False,
    ) -> "WeightedString":
        """Build a weighted string from per-position ``{letter: probability}``.

        Letters absent from a position's mapping get probability 0.  If no
        alphabet is given, it is inferred from the union of keys (sorted).
        """
        rows = [dict(row) for row in distributions]
        if alphabet is None:
            letters = sorted({letter for row in rows for letter in row})
            if not letters:
                raise WeightedStringError(
                    "cannot infer an alphabet from empty distributions"
                )
            alphabet = Alphabet(letters)
        matrix = np.zeros((len(rows), alphabet.size), dtype=np.float64)
        for i, row in enumerate(rows):
            for letter, probability in row.items():
                matrix[i, alphabet.code(letter)] = probability
        return cls(matrix, alphabet, normalize=normalize)

    @classmethod
    def from_string(
        cls, text: Sequence[str], alphabet: Alphabet | None = None
    ) -> "WeightedString":
        """Build a *certain* weighted string (every position has probability 1).

        Useful to treat a standard string as the degenerate case of an
        uncertain string, e.g. in tests and examples.
        """
        if alphabet is None:
            alphabet = Alphabet.from_text(text)
        codes = alphabet.encode(text)
        matrix = np.zeros((len(codes), alphabet.size), dtype=np.float64)
        matrix[np.arange(len(codes)), codes] = 1.0
        return cls(matrix, alphabet)

    @classmethod
    def from_sparse_rows(
        cls, rows: np.ndarray, codes: np.ndarray, probabilities: np.ndarray,
        alphabet: Alphabet,
    ) -> "WeightedString":
        """Decode the CSR rows of :meth:`sparse_rows` with one scatter.

        The triple is kept as given (memory-mapped arrays stay mapped) and
        :meth:`sparse_rows` returns it until an update replaces rows.  The
        constructor's checks run on the entries, not on the dense matrix.
        A malformed triple — row pointer not running from 0 to the entry
        count, entries out of order or repeated, codes outside the
        alphabet — raises :class:`~repro.errors.WeightedStringError`.
        """
        sigma = alphabet.size
        n = len(rows) - 1
        counts = np.diff(rows.astype(np.int64, copy=False))
        if (
            n < 0
            or rows[0] != 0
            or rows[-1] != len(codes)
            or len(probabilities) != len(codes)
            or (counts < 0).any()
            or (len(codes) and int(codes.max()) >= sigma)
        ):
            raise WeightedStringError("malformed sparse rows")
        row_ids = np.repeat(np.arange(n, dtype=np.int64), counts)
        flat = row_ids * sigma + codes
        if (np.diff(flat) <= 0).any():
            raise WeightedStringError("sparse row entries out of order")
        _check_entries(probabilities)
        _check_row_sums(np.bincount(row_ids, weights=probabilities, minlength=n))
        matrix = np.zeros((n, sigma), dtype=np.float64)
        matrix.reshape(-1)[flat] = probabilities
        string = cls.__new__(cls)
        string._adopt(matrix, alphabet)
        string._sparse = (rows, codes, probabilities)
        return string

    # ------------------------------------------------------------------ #
    # basic accessors                                                     #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._probs.shape[0]

    @property
    def length(self) -> int:
        """``n``, the number of positions."""
        return self._probs.shape[0]

    @property
    def alphabet(self) -> Alphabet:
        """The alphabet of the weighted string."""
        return self._alphabet

    @property
    def sigma(self) -> int:
        """``σ``, the alphabet size."""
        return self._alphabet.size

    @property
    def matrix(self) -> np.ndarray:
        """The (read-only) ``(n × σ)`` probability matrix."""
        return self._probs

    @property
    def log_matrix(self) -> np.ndarray:
        """The ``(n × σ)`` natural-log probability matrix (``-inf`` at zeros).

        Computed once and cached; this is the substrate of every batched
        probability computation (occurrence probabilities of whole candidate
        sets are sums of rows of this matrix).
        """
        if self._log_probs is None:
            with np.errstate(divide="ignore"):
                logs = np.log(self._probs)
            logs.setflags(write=False)
            self._log_probs = logs
        return self._log_probs

    def sparse_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The matrix as CSR rows: ``(rows, codes, probabilities)``.

        Row ``i``'s entries are ``codes[rows[i]:rows[i+1]]`` (ascending)
        with their ``probabilities``.  An entry is kept when its bit
        pattern is not all zeros, so ``-0.0`` and subnormals round-trip
        bit for bit.  ``rows`` is ``int32`` while the entry count fits,
        ``codes`` the narrowest unsigned type that holds ``σ - 1``.
        Returns the decoded triple of :meth:`from_sparse_rows` as it was
        given, until an update replaces rows.
        """
        if self._sparse is not None:
            return self._sparse
        bits = self._probs.view(np.uint64)
        flat = np.flatnonzero(bits)
        rows = np.zeros(len(self) + 1, dtype=np.int32 if len(flat) < 2**31 else np.int64)
        np.cumsum(np.count_nonzero(bits, axis=1), out=rows[1:])
        codes = (flat % self.sigma).astype(np.min_scalar_type(self.sigma - 1))
        return rows, codes, self._probs.reshape(-1)[flat]

    def probability(self, position: int, code: int) -> float:
        """``p_position(code)``: probability of a letter code at a position."""
        return float(self._probs[position, code])

    def distribution(self, position: int) -> np.ndarray:
        """The probability vector of one position (read-only view)."""
        return self._probs[position]

    def letters_at(self, position: int, min_probability: float = 0.0) -> list[int]:
        """Codes whose probability at ``position`` exceeds ``min_probability``.

        With the default threshold this is the set of letters that *occur*
        at the position in the paper's sense (probability > 0).
        """
        row = self._probs[position]
        return [int(code) for code in np.nonzero(row > min_probability)[0]]

    def uncertain_positions(self) -> np.ndarray:
        """Positions where more than one letter has positive probability.

        The fraction of such positions is the ``Δ`` statistic reported in
        Table 2 of the paper.
        """
        return np.nonzero((self._probs > 0.0).sum(axis=1) > 1)[0]

    @property
    def delta(self) -> float:
        """``Δ``: the fraction of uncertain positions (Table 2)."""
        if not len(self):
            return 0.0
        return float(len(self.uncertain_positions())) / float(len(self))

    # ------------------------------------------------------------------ #
    # factor probabilities and solidity                                   #
    # ------------------------------------------------------------------ #
    def occurrence_probability(self, pattern: Sequence[int], position: int) -> float:
        """Probability that ``pattern`` (a code sequence) occurs at ``position``.

        This is ``P(X[i .. i+m-1] = P)`` from the paper; 0 if the pattern
        would overhang the end of the string.
        """
        m = len(pattern)
        if position < 0 or position + m > len(self):
            return 0.0
        probability = 1.0
        probs = self._probs
        for offset, code in enumerate(pattern):
            probability *= probs[position + offset, code]
            if probability == 0.0:
                return 0.0
        return probability

    def is_solid(self, pattern: Sequence[int], position: int, z: float) -> bool:
        """Whether ``pattern`` has a z-solid (z-valid) occurrence at ``position``."""
        z = validate_threshold(z)
        return is_solid_probability(self.occurrence_probability(pattern, position), z)

    def solid_count(self, pattern: Sequence[int], position: int, z: float) -> int:
        """``⌊z · P(X[position..] = pattern)⌋`` — the Theorem 2 count."""
        z = validate_threshold(z)
        return solid_count(self.occurrence_probability(pattern, position), z)

    def occurrence_log_probabilities(
        self, pattern: Sequence[int], positions: Sequence[int]
    ) -> np.ndarray:
        """``ln P(X[i .. i+m-1] = pattern)`` for a whole array of starts.

        Vectorised companion of :meth:`occurrence_probability`: the
        ``(B × m)`` relevant entries of :attr:`log_matrix` are gathered with
        one fancy-indexing operation and summed per row.  Out-of-range starts
        and impossible factors yield ``-inf``.
        """
        codes = np.asarray(pattern, dtype=np.int64)
        starts = np.asarray(positions, dtype=np.int64)
        m = len(codes)
        out = np.full(len(starts), -np.inf, dtype=np.float64)
        if m == 0:
            out[(starts >= 0) & (starts <= len(self))] = 0.0
            return out
        in_range = (starts >= 0) & (starts + m <= len(self))
        if not in_range.any():
            return out
        valid_starts = starts[in_range]
        gathered = self.log_matrix[
            valid_starts[:, None] + np.arange(m, dtype=np.int64)[None, :],
            codes[None, :],
        ]
        out[in_range] = gathered.sum(axis=1)
        return out

    def occurrence_probabilities(
        self, pattern: Sequence[int], positions: Sequence[int]
    ) -> np.ndarray:
        """Occurrence probabilities of ``pattern`` at an array of starts."""
        return np.exp(self.occurrence_log_probabilities(pattern, positions))

    def occurrences(self, pattern: Sequence[int], z: float) -> list[int]:
        """All z-valid occurrence positions of ``pattern`` (brute force).

        This is the reference oracle ``Occ_{1/z}(P, X)``; the indexes in
        :mod:`repro.indexes` must return exactly this set.  Computed over all
        starts at once through the log-probability cache.
        """
        z = validate_threshold(z)
        m = len(pattern)
        if m == 0:
            return list(range(len(self) + 1))
        if m > len(self):
            return []
        starts = np.arange(len(self) - m + 1, dtype=np.int64)
        probabilities = self.occurrence_probabilities(pattern, starts)
        solid = solid_probability_mask(probabilities, z)
        return [int(start) for start in starts[solid]]

    def maximal_solid_length(self, position: int, letters: Sequence[int], z: float) -> int:
        """Longest prefix of ``letters`` that is solid when read from ``position``.

        Helper for property arrays: returns the largest ``L`` such that
        ``letters[:L]`` is z-solid at ``position`` (0 if even the first
        letter is not solid there).
        """
        z = validate_threshold(z)
        probability = 1.0
        length = 0
        for offset, code in enumerate(letters):
            if position + offset >= len(self):
                break
            probability *= self._probs[position + offset, code]
            if not is_solid_probability(probability, z):
                break
            length = offset + 1
        return length

    # ------------------------------------------------------------------ #
    # heavy letters                                                       #
    # ------------------------------------------------------------------ #
    def heavy_codes(self) -> np.ndarray:
        """The heavy string of ``X`` as an array of codes (Definition 2).

        Ties are broken towards the smallest code, which is an arbitrary but
        deterministic choice (the paper allows any tie-break).
        """
        return np.argmax(self._probs, axis=1).astype(np.int64)

    def heavy_probabilities(self) -> np.ndarray:
        """The probability of the heavy letter at each position."""
        return self._probs.max(axis=1)

    # ------------------------------------------------------------------ #
    # point updates                                                       #
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Number of update batches applied so far (0 for a pristine string)."""
        return self._version

    def coerce_distribution(self, distribution, *, normalize: bool = True) -> np.ndarray:
        """One position's new distribution as a validated ``σ``-vector.

        ``distribution`` is either a ``{letter: probability}`` mapping or a
        length-``σ`` probability vector.  Rows are re-normalized to sum to 1
        by default (``normalize=False`` enforces the constructor tolerance
        instead).
        """
        if isinstance(distribution, Mapping):
            row = np.zeros(self.sigma, dtype=np.float64)
            for letter, probability in distribution.items():
                row[self._alphabet.code(letter)] = float(probability)
        else:
            row = np.asarray(distribution, dtype=np.float64)
            if row.shape != (self.sigma,):
                raise WeightedStringError(
                    f"a distribution must have {self.sigma} entries, "
                    f"got shape {row.shape}"
                )
            row = row.copy()
        # NaN compares False against everything, so it would pass both the
        # negativity and the zero-sum guard and normalize into a NaN row.
        if not np.isfinite(row).all():
            raise WeightedStringError(
                "a distribution's probabilities must be finite (no NaN or infinity)"
            )
        if np.any(row < 0.0):
            raise WeightedStringError("probabilities must be non-negative")
        total = row.sum()
        if total <= 0.0:
            raise WeightedStringError(
                "a distribution's probabilities cannot all be zero"
            )
        if normalize:
            return row / total
        if abs(total - 1.0) > _ROW_SUM_TOLERANCE:
            raise WeightedStringError(
                f"distribution sums to {total:.6f}, expected 1.0 "
                "(pass normalize=True to rescale)"
            )
        return row

    def coerce_updates(self, updates, *, normalize: bool = True) -> list[tuple[int, np.ndarray]]:
        """Validate a batch of ``(position, distribution)`` point updates.

        Returns ``(position, row)`` pairs with rows coerced through
        :meth:`coerce_distribution`; later entries for the same position win
        (the batch is applied left to right).  Shared by
        :meth:`apply_updates` and the serving layer, which needs the
        validated positions *before* mutating anything.
        """
        pairs: list[tuple[int, np.ndarray]] = []
        for entry in updates:
            try:
                position, distribution = entry
            except (TypeError, ValueError):
                raise WeightedStringError(
                    "each update must be a (position, distribution) pair"
                ) from None
            position = int(position)
            if not 0 <= position < len(self):
                raise WeightedStringError(
                    f"update position {position} outside string of length {len(self)}"
                )
            pairs.append(
                (position, self.coerce_distribution(distribution, normalize=normalize))
            )
        return pairs

    def _writable_rows(self, array: np.ndarray) -> np.ndarray:
        """A privately owned, temporarily writable version of ``array``.

        The matrix is mutated in place when this object owns its memory, so
        views taken of it (shard sources) stay coherent; memory-mapped or
        borrowed matrices (store-loaded indexes, slices of another string)
        are first materialised as a private copy — mutating the backing file
        or a sibling string would corrupt state this object does not own.
        """
        if isinstance(array, np.memmap) or not array.flags.owndata:
            array = np.array(array)
        array.setflags(write=True)
        return array

    def apply_updates(self, updates, *, normalize: bool = True) -> list[int]:
        """Apply point updates in place; returns the sorted distinct positions.

        Each update replaces one position's distribution (re-normalized by
        default).  The probability matrix and the log-probability cache are
        patched in place, so indexes holding views of :attr:`matrix` observe
        the new rows; their *derived* structures become stale and must be
        refreshed through ``UncertainStringIndex.apply_updates`` (which calls
        this and then repairs itself).  Updates are absolute, hence
        idempotent: re-applying the same batch is a no-op, which lets several
        indexes sharing one source object each apply the same update
        sequence safely.
        """
        pairs = self.coerce_updates(updates, normalize=normalize)
        if not pairs:
            return []
        probs = self._writable_rows(self._probs)
        for position, row in pairs:
            probs[position] = row
        probs.setflags(write=False)
        self._probs = probs
        self._sparse = None
        positions = sorted({position for position, _ in pairs})
        if self._log_probs is not None:
            logs = self._writable_rows(self._log_probs)
            with np.errstate(divide="ignore"):
                for position in positions:
                    logs[position] = np.log(probs[position])
            logs.setflags(write=False)
            self._log_probs = logs
        self._version += 1
        return positions

    def spliced(self, blocks) -> "WeightedString":
        """A new string with blocks of rows replaced; this one is untouched.

        ``blocks`` holds ``(start, rows)`` pairs: ``rows`` become the
        distributions of positions ``start, start + 1, ...`` bit for bit.
        Only the new rows are validated.  A computed log-probability cache
        is carried over, and only the replaced rows' logs are recomputed,
        the way :meth:`apply_updates` patches it.
        """
        probs = np.array(self._probs)
        spans = []
        for start, rows in blocks:
            rows = np.asarray(rows, dtype=np.float64)
            _check_entries(rows)
            _check_row_sums(rows.sum(axis=1))
            probs[start : start + len(rows)] = rows
            spans.append((start, start + len(rows)))
        spliced = WeightedString.__new__(WeightedString)
        spliced._adopt(probs, self._alphabet)
        if self._log_probs is not None:
            logs = np.array(self._log_probs)
            with np.errstate(divide="ignore"):
                for start, stop in spans:
                    logs[start:stop] = np.log(probs[start:stop])
            logs.setflags(write=False)
            spliced._log_probs = logs
        return spliced

    def update_position(self, position: int, distribution, *, normalize: bool = True) -> int:
        """Replace one position's distribution in place (see :meth:`apply_updates`)."""
        return self.apply_updates([(position, distribution)], normalize=normalize)[0]

    def apply_range_update(self, start: int, rows, *, normalize: bool = True) -> list[int]:
        """Replace one contiguous span of distributions (see :meth:`apply_updates`).

        ``rows[i]`` becomes the new distribution of position ``start + i``.
        Equivalent to a batch of point updates at consecutive positions, but
        states the contiguity explicitly — downstream repair treats the span
        as a single replay window.
        """
        rows = list(rows)
        if not rows:
            return []
        return self.apply_updates(
            [(start + offset, row) for offset, row in enumerate(rows)],
            normalize=normalize,
        )

    # ------------------------------------------------------------------ #
    # transformations                                                     #
    # ------------------------------------------------------------------ #
    def reverse(self) -> "WeightedString":
        """The reverse weighted string (distributions in reverse order)."""
        return WeightedString(self._probs[::-1].copy(), self._alphabet)

    def slice(self, start: int, stop: int) -> "WeightedString":
        """The weighted substring on positions ``[start, stop)``."""
        if not 0 <= start <= stop <= len(self):
            raise WeightedStringError(
                f"invalid slice [{start}, {stop}) for length {len(self)}"
            )
        return WeightedString(self._probs[start:stop].copy(), self._alphabet)

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self))
            if step != 1:
                raise WeightedStringError("only contiguous slices are supported")
            return self.slice(start, stop)
        return self.distribution(item)

    def concat(self, other: "WeightedString") -> "WeightedString":
        """Concatenate two weighted strings over the same alphabet."""
        if other.alphabet != self._alphabet:
            raise WeightedStringError("cannot concatenate over different alphabets")
        return WeightedString(
            np.vstack([self._probs, other.matrix]), self._alphabet
        )

    def to_dicts(self, *, drop_zero: bool = True) -> list[dict[str, float]]:
        """Export as per-position ``{letter: probability}`` dictionaries."""
        rows = []
        for i in range(len(self)):
            row = {}
            for code in range(self.sigma):
                probability = float(self._probs[i, code])
                if probability > 0.0 or not drop_zero:
                    row[self._alphabet.letter(code)] = probability
            rows.append(row)
        return rows

    # ------------------------------------------------------------------ #
    # dunder helpers                                                      #
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedString):
            return NotImplemented
        return self._alphabet == other._alphabet and np.array_equal(
            self._probs, other._probs
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely useful, but defined
        return hash((self._alphabet, self._probs.tobytes()))

    def __repr__(self) -> str:
        return (
            f"WeightedString(length={len(self)}, sigma={self.sigma}, "
            f"delta={self.delta:.3f})"
        )

    def entropy(self) -> float:
        """Average per-position Shannon entropy (bits) — a dataset statistic."""
        probs = self._probs
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(probs > 0.0, -probs * np.log2(probs), 0.0)
        if not len(self):
            return 0.0
        return float(terms.sum(axis=1).mean())

    def expected_size_bytes(self) -> int:
        """Bytes needed to store the matrix densely (8 bytes per entry)."""
        return int(self._probs.size * 8)

    def sample_string(self, rng: np.random.Generator | None = None) -> list[int]:
        """Draw one plain string from the position-wise distributions.

        Positions are sampled independently, matching the probabilistic
        semantics of the character-level uncertainty model.
        """
        rng = rng or np.random.default_rng()
        cumulative = np.cumsum(self._probs, axis=1)
        draws = rng.random(len(self))
        return [int(np.searchsorted(cumulative[i], draws[i])) for i in range(len(self))]

    def log_probability(self, pattern: Sequence[int], position: int) -> float:
        """Natural-log occurrence probability (``-inf`` for impossible factors)."""
        probability = self.occurrence_probability(pattern, position)
        if probability <= 0.0:
            return float("-inf")
        return math.log(probability)
