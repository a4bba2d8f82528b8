"""Longest-common-prefix arrays (Kasai's algorithm) and LCE support.

``lcp_array[r]`` is the length of the longest common prefix of the suffixes
of rank ``r`` and ``r-1`` (``lcp_array[0] = 0``).  Combined with a range
minimum structure this yields O(1) longest common extension (LCE) queries,
which the tree constructions and the heavy-string comparators rely on.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .rmq import SparseTableRMQ
from .suffix_array import rank_array, suffix_array

__all__ = ["lcp_array", "LCEIndex", "lcp_of_strings"]


def _kasai(text, sa, ranks, lcp) -> None:
    """Fill ``lcp`` (same convention as :func:`lcp_array`: lcp[0] = 0).

    One sequential pass over text positions; the amortised O(n) bound depends
    on carrying ``length - 1`` between iterations, so the loop cannot
    vectorise.
    """
    n = text.shape[0]
    length = 0
    for position in range(n):
        rank = ranks[position]
        if rank == 0:
            length = 0
            continue
        other = sa[rank - 1]
        longer = position if position > other else other
        limit = n - longer
        while length < limit and text[position + length] == text[other + length]:
            length += 1
        lcp[rank] = length
        if length > 0:
            length -= 1


def lcp_array(text: Sequence[int], sa: np.ndarray) -> np.ndarray:
    """Kasai's algorithm: LCP array aligned with the suffix array (O(n))."""
    text = np.asarray(text, dtype=np.int64)
    n = len(text)
    lcp = np.zeros(n, dtype=np.int64)
    if n == 0:
        return lcp
    ranks = rank_array(sa)
    _kasai(text, np.ascontiguousarray(sa, dtype=np.int64), ranks, lcp)
    return lcp


def lcp_of_strings(first: Sequence[int], second: Sequence[int]) -> int:
    """Plain longest common prefix of two code sequences."""
    limit = min(len(first), len(second))
    for index in range(limit):
        if first[index] != second[index]:
            return index
    return limit


class LCEIndex:
    """O(1) longest-common-extension queries over one code string.

    Built from the suffix array, the LCP array and a sparse-table RMQ;
    construction is O(n log n), queries are O(1).  ``lce(i, j)`` returns the
    length of the longest common prefix of the suffixes starting at ``i`` and
    ``j``.
    """

    __slots__ = ("_text", "_sa", "_ranks", "_lcp", "_rmq")

    def __init__(self, text: Sequence[int]) -> None:
        self._text = np.asarray(text, dtype=np.int64)
        self._sa = suffix_array(self._text)
        self._ranks = rank_array(self._sa)
        self._lcp = lcp_array(self._text, self._sa)
        self._rmq = SparseTableRMQ(self._lcp) if len(self._lcp) else None

    def __len__(self) -> int:
        return len(self._text)

    @property
    def text(self) -> np.ndarray:
        """The indexed code string."""
        return self._text

    def lce(self, first: int, second: int) -> int:
        """Longest common extension of the suffixes at ``first`` and ``second``."""
        n = len(self._text)
        if first == second:
            return n - first
        if first >= n or second >= n:
            return 0
        ra, rb = int(self._ranks[first]), int(self._ranks[second])
        if ra > rb:
            ra, rb = rb, ra
        return int(self._rmq.range_min(ra + 1, rb + 1))

    def compare_suffixes(self, first: int, second: int) -> int:
        """Lexicographic comparison (-1/0/+1) of two suffixes in O(1)."""
        if first == second:
            return 0
        return -1 if self._ranks[first] < self._ranks[second] else 1

    def nbytes(self) -> int:
        """Approximate memory footprint of the structure."""
        total = self._text.nbytes + self._sa.nbytes + self._ranks.nbytes + self._lcp.nbytes
        if self._rmq is not None:
            total += self._rmq.nbytes()
        return int(total)
