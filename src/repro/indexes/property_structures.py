"""Shared machinery of the WST / WSA baselines: property suffix structures.

Both baselines index the z-estimation ``(S_j, π_j)``: every suffix of every
``S_j`` is stored together with its *valid length* (how far the property
``π_j`` lets it be read).  A pattern occurrence respecting the property in
any ``S_j`` is, by the defining Count property of the z-estimation, exactly a
z-valid occurrence in ``X``.  Reporting only the suffixes whose valid length
is at least ``m`` is done output-sensitively with a range-maximum structure,
following the property-suffix-array technique.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.estimation import ZEstimation
from ..strings.lcp import lcp_array
from ..strings.rmq import SparseTableRMaxQ, report_at_least
from ..strings.suffix_array import suffix_array, suffix_array_interval

__all__ = ["PropertySuffixStructure"]


class PropertySuffixStructure:
    """Generalised suffix array of a z-estimation with property filtering.

    The ``⌊z⌋`` strings are concatenated (letters shifted by +1, separated by
    the unique smallest letter 0), suffix-sorted once, and each suffix rank is
    annotated with the position it starts at in ``X`` and with its valid
    length under the corresponding property array.
    """

    def __init__(
        self,
        estimation: ZEstimation,
        *,
        with_lcp: bool = False,
    ) -> None:
        width, length = estimation.width, estimation.length
        strings = estimation.strings
        piece = length + 1
        text = np.zeros(width * piece, dtype=np.int64)
        for j in range(width):
            text[j * piece : j * piece + length] = strings[j] + 1
        self.text = text
        self.sa = suffix_array(text)
        self.lcp = lcp_array(text, self.sa) if with_lcp else None

        # Map each concatenation position to (string, position-in-X).
        positions_in_x = np.tile(np.arange(piece, dtype=np.int64), width)
        positions_in_x[length::piece] = -1  # separators
        valid_lengths = np.zeros(width * piece, dtype=np.int64)
        if length:
            offsets = np.arange(length, dtype=np.int64)
            per_string = estimation.ends - offsets[None, :] + 1
            per_string = np.maximum(per_string, 0)
            for j in range(width):
                valid_lengths[j * piece : j * piece + length] = per_string[j]
        self.position_in_x = positions_in_x
        # Align the per-position arrays with suffix-array rank order.
        self.rank_positions = positions_in_x[self.sa]
        self.rank_valid_lengths = valid_lengths[self.sa]
        self.report_structure = (
            SparseTableRMaxQ(self.rank_valid_lengths) if len(self.sa) else None
        )
        self.estimation_width = width
        self.estimation_length = length

    @classmethod
    def from_arrays(
        cls,
        text: np.ndarray,
        sa: np.ndarray,
        rank_positions: np.ndarray,
        rank_valid_lengths: np.ndarray,
        width: int,
        length: int,
    ) -> "PropertySuffixStructure":
        """Reassemble a structure from its persisted arrays (the index store).

        Skips the estimation concatenation and the suffix sort entirely; only
        the O(N log N)-word range-maximum table — a query-acceleration cache,
        not a construction artefact — is derived from the loaded arrays.  The
        LCP array is a construction artefact (the WST builds its trie from
        it) and stays ``None``.
        """
        structure = cls.__new__(cls)
        structure.text = np.asarray(text, dtype=np.int64)
        structure.sa = np.asarray(sa, dtype=np.int64)
        structure.lcp = None
        structure.position_in_x = None  # derivable; not needed after construction
        structure.rank_positions = np.asarray(rank_positions, dtype=np.int64)
        structure.rank_valid_lengths = np.asarray(rank_valid_lengths, dtype=np.int64)
        structure.report_structure = (
            SparseTableRMaxQ(structure.rank_valid_lengths) if len(structure.sa) else None
        )
        structure.estimation_width = int(width)
        structure.estimation_length = int(length)
        return structure

    # -- size helpers --------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Number of suffix-array entries (Θ(nz))."""
        return len(self.sa)

    def pattern_interval(self, pattern: Sequence[int]) -> tuple[int, int]:
        """Suffix-array interval of the (shifted) pattern."""
        shifted = np.asarray(pattern, dtype=np.int64) + 1
        return suffix_array_interval(self.text, self.sa, shifted)

    def report_valid(self, lo: int, hi: int, m: int) -> list[int]:
        """Positions in ``X`` of property-respecting occurrences in SA range [lo, hi)."""
        if lo >= hi or self.report_structure is None:
            return []
        ranks = report_at_least(self.report_structure, lo, hi, m)
        return [int(self.rank_positions[rank]) for rank in ranks]

    def locate(self, pattern: Sequence[int]) -> list[int]:
        """Sorted, deduplicated z-valid occurrence positions of ``pattern``."""
        m = len(pattern)
        lo, hi = self.pattern_interval(pattern)
        reported = np.asarray(self.report_valid(lo, hi, m), dtype=np.int64)
        return [int(position) for position in np.unique(reported)]
