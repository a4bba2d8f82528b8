"""Suffix arrays for code sequences (prefix doubling).

The suffix array is the array-based workhorse of the paper's baselines: the
weighted suffix array (WSA) is, in essence, a generalised suffix array over
the z-estimation plus per-entry valid lengths.  It is built by the classic
O(n log n) prefix-doubling algorithm, fully vectorised with numpy: every
round is a few argsorts over the whole text, which beats a linear-time
construction whose scalar loops run in the interpreter.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..timing import stage_timer

__all__ = [
    "suffix_array",
    "rank_array",
    "generalized_suffix_array",
    "suffix_array_interval",
]


def suffix_array(codes: Sequence[int]) -> np.ndarray:
    """Return the suffix array of ``codes`` (indices of suffixes in sorted order).

    Codes may be any non-negative integers; ties beyond the end of the string
    are resolved by treating "past the end" as smaller than every letter,
    which matches the usual convention of a unique smallest terminator.
    """
    text = np.asarray(codes, dtype=np.int64)
    n = len(text)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    with stage_timer("sa"):
        return _suffix_array_prefix_doubling(text)


def _suffix_array_prefix_doubling(text: np.ndarray) -> np.ndarray:
    n = len(text)
    # Initial ranks: the codes themselves (compressed to a dense range).
    order = np.argsort(text, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    sorted_codes = text[order]
    ranks[order] = np.cumsum(np.concatenate([[0], sorted_codes[1:] != sorted_codes[:-1]]))
    step = 1
    indices = np.arange(n, dtype=np.int64)
    while step < n:
        # Rank of the suffix starting `step` positions later (-1 = past the end).
        second = np.full(n, -1, dtype=np.int64)
        second[: n - step] = ranks[step:]
        keys = ranks * (n + 1) + (second + 1)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        new_ranks = np.empty(n, dtype=np.int64)
        new_ranks[order] = np.cumsum(
            np.concatenate([[0], sorted_keys[1:] != sorted_keys[:-1]])
        )
        ranks = new_ranks
        if ranks[order[-1]] == n - 1:
            break
        step *= 2
    result = np.empty(n, dtype=np.int64)
    result[ranks] = indices
    return result


def rank_array(sa: np.ndarray) -> np.ndarray:
    """Inverse permutation of a suffix array (suffix start → rank)."""
    ranks = np.empty(len(sa), dtype=np.int64)
    ranks[sa] = np.arange(len(sa), dtype=np.int64)
    return ranks


def generalized_suffix_array(
    strings: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Suffix array of the concatenation of several code strings.

    The strings are concatenated with a separator smaller than every letter
    (letters are shifted up by one).  Returns ``(text, sa, which, offset)``
    where ``text`` is the shifted concatenation, ``sa`` its suffix array, and
    ``which[p]`` / ``offset[p]`` map a concatenation position back to the
    originating string index and the position inside it (separator positions
    map to ``which = -1``).
    """
    pieces = []
    which_pieces = []
    offset_pieces = []
    for index, codes in enumerate(strings):
        codes = np.asarray(codes, dtype=np.int64)
        pieces.append(codes + 1)
        pieces.append(np.zeros(1, dtype=np.int64))
        which_pieces.append(np.full(len(codes), index, dtype=np.int64))
        which_pieces.append(np.full(1, -1, dtype=np.int64))
        offset_pieces.append(np.arange(len(codes), dtype=np.int64))
        offset_pieces.append(np.full(1, -1, dtype=np.int64))
    if not pieces:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    text = np.concatenate(pieces)
    which = np.concatenate(which_pieces)
    offset = np.concatenate(offset_pieces)
    return text, suffix_array(text), which, offset


def _compare_pattern(pattern: np.ndarray, text: np.ndarray, start: int) -> int:
    """Compare ``pattern`` with the suffix of ``text`` at ``start``.

    Returns -1/0/+1 with the convention that a suffix that is a proper prefix
    of the pattern is smaller than the pattern.
    """
    n = len(text)
    m = len(pattern)
    length = min(m, n - start)
    window = text[start : start + length]
    prefix = pattern[:length]
    diffs = np.nonzero(window != prefix)[0]
    if len(diffs):
        position = diffs[0]
        return -1 if pattern[position] > window[position] else 1
    if length < m:
        return -1  # suffix ran out first: suffix < pattern
    return 0


def suffix_array_interval(
    text: Sequence[int], sa: np.ndarray, pattern: Sequence[int]
) -> tuple[int, int]:
    """The half-open SA interval of suffixes starting with ``pattern``.

    Standard binary search in O(m log n); returns ``(lo, hi)`` with
    ``lo == hi`` when the pattern does not occur.
    """
    text = np.asarray(text, dtype=np.int64)
    pattern = np.asarray(pattern, dtype=np.int64)
    if len(pattern) == 0:
        return 0, len(sa)

    def lower_bound() -> int:
        lo, hi = 0, len(sa)
        while lo < hi:
            mid = (lo + hi) // 2
            if _compare_pattern(pattern, text, int(sa[mid])) < 0:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def upper_bound() -> int:
        lo, hi = 0, len(sa)
        while lo < hi:
            mid = (lo + hi) // 2
            comparison = _compare_pattern(pattern, text, int(sa[mid]))
            # Suffixes that start with the pattern compare as 0 here only when
            # they equal it; longer suffixes starting with the pattern compare
            # via their continuation, so treat "starts with pattern" explicitly.
            start = int(sa[mid])
            starts_with = bool(
                len(text) - start >= len(pattern)
                and np.array_equal(text[start : start + len(pattern)], pattern)
            )
            if comparison < 0 or starts_with:
                lo = mid + 1
            else:
                hi = mid
        return lo

    lo = lower_bound()
    hi = upper_bound()
    return lo, max(lo, hi)
