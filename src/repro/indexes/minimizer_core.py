"""Shared machinery of the minimizer-based indexes (Section 3 of the paper).

The minimizer solid-factor trees ``Tsuff`` and ``Tpref`` both boil down to a
*sorted collection of factor leaves*: every leaf is anchored at a minimizer
position ``q`` and spells the letters of a solid factor read rightward
(``Tsuff``) or leftward (``Tpref``) from ``q``.  Leaves are never
materialised as strings — following Corollary 4 they are stored as a
reference into the heavy string plus at most ``log₂ z`` mismatches, and all
comparisons go through longest-common-extension queries on the heavy string
(the Theorem 12 trick).

The collection is stored structure-of-arrays: parallel ``anchors`` /
``lengths`` / ``positions`` / ``sources`` vectors plus a CSR triple for the
mismatches.  Sorting packs fixed-width leaf-prefix key matrices and sorts
them with stable numpy argsorts (radix-style), widening the materialised
prefix only for the rows still tied; :class:`FactorLeaf` objects are lazy
views materialised on demand (tests, scalar query paths).

This module provides:

* :class:`FactorLeaf` — one leaf (anchor, length, mismatches, label);
* :class:`LeafArrays` — the raw structure-of-arrays leaf storage;
* :class:`LeafCollection` — a sorted, searchable collection of leaves over a
  reference code string (the heavy string or its reverse), with optional
  compacted-trie construction on top;
* :class:`MinimizerIndexData` — the pair of collections plus the sampling
  scheme, i.e. everything the MWST / MWSA / grid variants share;
* :func:`build_leaf_arrays_from_estimation` — the vectorised construction
  that samples the z-estimation (Lemma 5 / Contribution 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key

import numpy as np

from ..core.estimation import ZEstimation, build_z_estimation, resume_z_estimation
from ..core.heavy import HeavyString
from ..core.weighted_string import WeightedString
from ..errors import ConstructionError
from ..sampling.minimizers import MinimizerScheme
from ..strings.lcp import LCEIndex
from ..strings.trie import CompactedTrie
from .space import DEFAULT_SPACE_MODEL, SpaceModel

__all__ = [
    "FactorLeaf",
    "LeafArrays",
    "LeafCollection",
    "MinimizerIndexData",
    "build_leaf_arrays_from_estimation",
    "build_index_data_from_estimation",
    "apply_updates_to_data",
]


def _concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenated ``[lo[i], hi[i])`` ranges as one flat index array."""
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.repeat(lo, counts) + np.arange(total, dtype=np.int64) - np.repeat(
        starts, counts
    )


def _concat_ranges_reversed(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Like :func:`_concat_ranges` but each range is emitted in reverse."""
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.repeat(hi - 1, counts) - (
        np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    )


@dataclass(frozen=True)
class FactorLeaf:
    """One leaf of a minimizer solid-factor tree.

    ``anchor`` is the position in the *reference* string (the heavy string
    for forward leaves, the reversed heavy string for backward leaves) from
    which the leaf's letters are read rightward; ``mismatches`` lists the
    offsets at which the letter differs from the reference, with the actual
    letter code; ``position`` is the minimizer position ``q`` in the original
    weighted string, used to derive candidate occurrence positions; and
    ``source`` records which z-estimation string produced the leaf (or ``-1``
    for the space-efficient construction, which works per distinct factor).
    """

    anchor: int
    length: int
    mismatches: tuple[tuple[int, int], ...]
    position: int
    source: int = -1

    def mismatch_count(self) -> int:
        """Number of stored mismatches (≤ log₂ z for solid factors, Lemma 3)."""
        return len(self.mismatches)


class LeafArrays:
    """Structure-of-arrays leaf storage: one row per leaf, mismatches in CSR.

    The explicit construction derives leaves directly in this layout;
    :meth:`from_leaves` converts the list of :class:`FactorLeaf` objects the
    space-efficient DFS emits.
    """

    __slots__ = (
        "anchors",
        "lengths",
        "positions",
        "sources",
        "mm_start",
        "mm_offset",
        "mm_code",
    )

    def __init__(
        self,
        anchors: np.ndarray,
        lengths: np.ndarray,
        positions: np.ndarray,
        sources: np.ndarray,
        mm_start: np.ndarray,
        mm_offset: np.ndarray,
        mm_code: np.ndarray,
    ) -> None:
        self.anchors = np.asarray(anchors, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.positions = np.asarray(positions, dtype=np.int64)
        self.sources = np.asarray(sources, dtype=np.int64)
        self.mm_start = np.asarray(mm_start, dtype=np.int64)
        self.mm_offset = np.asarray(mm_offset, dtype=np.int64)
        self.mm_code = np.asarray(mm_code, dtype=np.int64)

    @classmethod
    def empty(cls) -> "LeafArrays":
        zeros = np.empty(0, dtype=np.int64)
        return cls(zeros, zeros, zeros, zeros, np.zeros(1, dtype=np.int64), zeros, zeros)

    @classmethod
    def from_leaves(cls, leaves) -> "LeafArrays":
        leaves = list(leaves)
        count = len(leaves)
        anchors = np.fromiter((leaf.anchor for leaf in leaves), np.int64, count)
        lengths = np.fromiter((leaf.length for leaf in leaves), np.int64, count)
        positions = np.fromiter((leaf.position for leaf in leaves), np.int64, count)
        sources = np.fromiter((leaf.source for leaf in leaves), np.int64, count)
        mm_start = np.zeros(count + 1, dtype=np.int64)
        offsets: list[int] = []
        codes: list[int] = []
        for row, leaf in enumerate(leaves):
            for offset, code in leaf.mismatches:
                offsets.append(offset)
                codes.append(code)
            mm_start[row + 1] = len(offsets)
        return cls(
            anchors,
            lengths,
            positions,
            sources,
            mm_start,
            np.asarray(offsets, dtype=np.int64),
            np.asarray(codes, dtype=np.int64),
        )

    @classmethod
    def concatenate(cls, parts: list["LeafArrays"]) -> "LeafArrays":
        if not parts:
            return cls.empty()
        counts = [arrays.mm_start[1:] - arrays.mm_start[0] for arrays in parts]
        mm_start = np.concatenate(
            [np.zeros(1, dtype=np.int64)]
            + [
                block + offset
                for block, offset in zip(
                    counts,
                    np.concatenate(
                        [[0], np.cumsum([int(c[-1]) if len(c) else 0 for c in counts])]
                    )[:-1],
                )
            ]
        )
        return cls(
            np.concatenate([arrays.anchors for arrays in parts]),
            np.concatenate([arrays.lengths for arrays in parts]),
            np.concatenate([arrays.positions for arrays in parts]),
            np.concatenate([arrays.sources for arrays in parts]),
            mm_start,
            np.concatenate([arrays.mm_offset for arrays in parts]),
            np.concatenate([arrays.mm_code for arrays in parts]),
        )

    def __len__(self) -> int:
        return len(self.anchors)

    def leaf(self, row: int) -> FactorLeaf:
        lo, hi = int(self.mm_start[row]), int(self.mm_start[row + 1])
        return FactorLeaf(
            anchor=int(self.anchors[row]),
            length=int(self.lengths[row]),
            mismatches=tuple(
                (int(self.mm_offset[index]), int(self.mm_code[index]))
                for index in range(lo, hi)
            ),
            position=int(self.positions[row]),
            source=int(self.sources[row]),
        )

    def take(self, rows: np.ndarray) -> "LeafArrays":
        """The sub-arrays of the given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.mm_start[rows]
        ends = self.mm_start[rows + 1]
        counts = ends - starts
        flat = _concat_ranges(starts, ends)
        return LeafArrays(
            self.anchors[rows],
            self.lengths[rows],
            self.positions[rows],
            self.sources[rows],
            np.concatenate([[0], np.cumsum(counts)]),
            self.mm_offset[flat],
            self.mm_code[flat],
        )


class LeafCollection:
    """A lexicographically sorted, array-backed collection of factor leaves.

    Parameters
    ----------
    leaves:
        The leaves, in arbitrary order — a list of :class:`FactorLeaf` or a
        :class:`LeafArrays` block.
    reference:
        The code string the anchors refer to (heavy string or its reverse).
    lce:
        Optional LCE index over ``reference``; built on demand when the
        collection needs an exact comparison fallback.
    """

    #: Length of the materialised prefix used by the first radix-sort round
    #: (and by the adjacent-LCP computation's first round).
    PRESORT_PREFIX = 24

    #: Widest materialised prefix used by the vectorised batch search; longer
    #: query pieces narrow the range on the first letters, then refine with
    #: the exact scalar comparator.
    SEARCH_PREFIX_LIMIT = 128

    #: Widest prefix the sort/LCP widening rounds materialise before falling
    #: back to the exact heavy-LCE comparator (pathological near-duplicate
    #: content only; identical-derivation duplicates are detected directly).
    SORT_WIDEN_LIMIT = 1024

    def __init__(
        self,
        leaves,
        reference: np.ndarray,
        lce: LCEIndex | None = None,
        *,
        presorted: bool = False,
        trie_lcps: np.ndarray | None = None,
    ) -> None:
        """``presorted=True`` trusts the given leaf order; ``trie_lcps`` seeds
        the adjacent-LCP cache so reloaded collections build tries without an
        LCE index (both are used by the binary index store)."""
        self._reference = np.asarray(reference, dtype=np.int64)
        self._lce = lce
        self._cached_lcps = (
            None if trie_lcps is None else np.asarray(trie_lcps, dtype=np.int64)
        )
        arrays = (
            leaves if isinstance(leaves, LeafArrays) else LeafArrays.from_leaves(leaves)
        )
        self._arrays = arrays
        count = len(arrays)
        if presorted:
            self.raw_to_sorted = np.arange(count, dtype=np.int64)
        else:
            order = self._sort_order()
            self._arrays = arrays.take(order)
            self.raw_to_sorted = np.empty(count, dtype=np.int64)
            self.raw_to_sorted[order] = np.arange(count, dtype=np.int64)
        self._leaf_cache: list[FactorLeaf | None] = [None] * count
        self._trie: CompactedTrie | None = None
        self._search_keys: np.ndarray | None = None
        self._search_width = 0
        self._max_letter: int | None = None

    # -- array access ----------------------------------------------------------------
    @property
    def arrays(self) -> LeafArrays:
        """The parallel leaf arrays, in sorted order (store, merge, engine)."""
        return self._arrays

    @property
    def reference(self) -> np.ndarray:
        """The reference code string shared by all leaves."""
        return self._reference

    @property
    def positions(self) -> np.ndarray:
        """Minimizer positions of the leaves, aligned with the sorted order."""
        return self._arrays.positions

    @property
    def anchors(self) -> np.ndarray:
        """Reference anchors of the leaves, aligned with the sorted order."""
        return self._arrays.anchors

    @property
    def lengths(self) -> np.ndarray:
        """Leaf lengths, aligned with the sorted order."""
        return self._arrays.lengths

    @property
    def sources(self) -> np.ndarray:
        """Source z-estimation string ids, aligned with the sorted order."""
        return self._arrays.sources

    # -- letter access -------------------------------------------------------------
    def letter(self, index: int, offset: int) -> int:
        """Letter code of leaf ``index`` at ``offset`` (must be < its length)."""
        arrays = self._arrays
        for entry in range(int(arrays.mm_start[index]), int(arrays.mm_start[index + 1])):
            if arrays.mm_offset[entry] == offset:
                return int(arrays.mm_code[entry])
        return int(self._reference[int(arrays.anchors[index]) + offset])

    def letters_at(self, rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`letter` over parallel ``(row, offset)`` queries.

        The mismatch entries of each row are stored with ascending offsets,
        so ``row * span + offset`` keys are globally sorted and one
        ``searchsorted`` resolves every query against the mismatch CSR; the
        rest reads the reference at ``anchor + offset``.
        """
        arrays = self._arrays
        rows = np.asarray(rows, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if not len(rows):
            return np.empty(0, dtype=np.int64)
        result = self._reference[arrays.anchors[rows] + offsets].astype(np.int64)
        if len(arrays.mm_offset):
            span = int(max(arrays.mm_offset.max(), offsets.max())) + 1
            counts = arrays.mm_start[1:] - arrays.mm_start[:-1]
            entry_rows = np.repeat(np.arange(len(arrays.anchors), dtype=np.int64), counts)
            entry_keys = entry_rows * span + arrays.mm_offset
            query_keys = rows * span + offsets
            slots = np.searchsorted(entry_keys, query_keys)
            clipped = np.minimum(slots, len(entry_keys) - 1)
            found = entry_keys[clipped] == query_keys
            result[found] = arrays.mm_code[clipped[found]]
        return result

    def leaf(self, index: int) -> FactorLeaf:
        """The leaf at a sorted index (a lazily materialised view)."""
        cached = self._leaf_cache[index]
        if cached is None:
            cached = self._arrays.leaf(index)
            self._leaf_cache[index] = cached
        return cached

    def __len__(self) -> int:
        return len(self._arrays)

    def __iter__(self):
        return (self.leaf(index) for index in range(len(self._arrays)))

    def leaf_codes(self, index: int, limit: int | None = None) -> list[int]:
        """Materialise (a prefix of) one leaf's letters — mostly for tests."""
        length = int(self._arrays.lengths[index])
        if limit is not None:
            length = min(limit, length)
        return [self.letter(index, offset) for offset in range(length)]

    # -- exact comparisons (scalar fallback) -------------------------------------------
    def _ensure_lce(self) -> LCEIndex:
        if self._lce is None:
            self._lce = LCEIndex(self._reference)
        return self._lce

    def _mismatch_offsets(self, index: int) -> np.ndarray:
        arrays = self._arrays
        return arrays.mm_offset[arrays.mm_start[index] : arrays.mm_start[index + 1]]

    def _leaf_lcp(self, first: int, second: int) -> int:
        """Longest common prefix of two leaves, via heavy-string LCE queries.

        Between mismatch offsets both leaves equal the reference, so whole
        stretches are compared with a single LCE query; only the ≤ log₂ z
        mismatch offsets are compared letter by letter (the Theorem 12
        comparison trick).
        """
        arrays = self._arrays
        lce = self._ensure_lce()
        limit = int(min(arrays.lengths[first], arrays.lengths[second]))
        anchor_a = int(arrays.anchors[first])
        anchor_b = int(arrays.anchors[second])
        breakpoints = sorted(
            {int(offset) for offset in self._mismatch_offsets(first)}
            | {int(offset) for offset in self._mismatch_offsets(second)}
        )
        bp_index = 0
        offset = 0
        while offset < limit:
            while bp_index < len(breakpoints) and breakpoints[bp_index] < offset:
                bp_index += 1
            next_break = breakpoints[bp_index] if bp_index < len(breakpoints) else limit
            next_break = min(next_break, limit)
            if offset < next_break:
                # Both leaves follow the reference on [offset, next_break).
                agreed = lce.lce(anchor_a + offset, anchor_b + offset)
                if agreed < next_break - offset:
                    return offset + agreed
                offset = next_break
                if offset >= limit:
                    return limit
            # offset is a mismatch offset of at least one leaf: compare directly.
            if self.letter(first, offset) != self.letter(second, offset):
                return offset
            offset += 1
        return limit

    def _compare(self, first: int, second: int) -> int:
        """Full lexicographic comparison of two leaves (ties by label)."""
        arrays = self._arrays
        lcp = self._leaf_lcp(first, second)
        length_a = int(arrays.lengths[first])
        length_b = int(arrays.lengths[second])
        if lcp < length_a and lcp < length_b:
            letter_a = self.letter(first, lcp)
            letter_b = self.letter(second, lcp)
            return -1 if letter_a < letter_b else 1
        if length_a != length_b:
            return -1 if length_a < length_b else 1
        position_a = int(arrays.positions[first])
        position_b = int(arrays.positions[second])
        if position_a != position_b:
            return -1 if position_a < position_b else 1
        source_a = int(arrays.sources[first])
        source_b = int(arrays.sources[second])
        if source_a != source_b:
            return -1 if source_a < source_b else 1
        return 0

    # -- vectorised content materialisation ----------------------------------------------
    def _content_matrix(self, rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Letters of the given leaf rows at offsets ``[lo, hi)``.

        Entry ``[i, t]`` is the letter of row ``rows[i]`` at offset
        ``lo + t``, or ``-1`` past the leaf's end (which sorts before every
        real letter, matching the proper-prefix-first leaf order).
        Reference letters are gathered in one fancy-indexing pass and the CSR
        mismatches of the selected rows are scattered on top.
        """
        arrays = self._arrays
        width = hi - lo
        if len(rows) == 0 or len(self._reference) == 0:
            return np.empty((len(rows), width), dtype=np.int64)
        offsets = np.arange(lo, hi, dtype=np.int64)
        gather = np.minimum(
            arrays.anchors[rows][:, None] + offsets[None, :], len(self._reference) - 1
        )
        matrix = self._reference[gather]
        starts = arrays.mm_start[rows]
        ends = arrays.mm_start[rows + 1]
        counts = ends - starts
        if counts.any():
            flat = _concat_ranges(starts, ends)
            mm_offsets = arrays.mm_offset[flat]
            selected = (mm_offsets >= lo) & (mm_offsets < hi)
            if selected.any():
                mm_rows = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
                matrix[mm_rows[selected], mm_offsets[selected] - lo] = arrays.mm_code[
                    flat[selected]
                ]
        matrix[offsets[None, :] >= arrays.lengths[rows][:, None]] = -1
        return matrix

    def _max_letter_code(self) -> int:
        max_code = int(self._reference.max(initial=0))
        if len(self._arrays.mm_code):
            max_code = max(max_code, int(self._arrays.mm_code.max()))
        return max_code

    # -- sorting ---------------------------------------------------------------------
    def _stable_content_order(
        self,
        matrix: np.ndarray,
        positions: np.ndarray,
        sources: np.ndarray,
        group_ids: np.ndarray | None,
        packable: bool,
    ) -> np.ndarray:
        """Stable order by (group, content columns, position, source).

        Implemented as a chain of stable argsorts from the least significant
        key up (classic LSD radix sorting); when every letter fits in a byte
        the content columns collapse into one packed fixed-width byte key
        compared with a single memcmp-style argsort.
        """
        order = np.lexsort((sources, positions))
        if packable:
            width = matrix.shape[1]
            packed = np.ascontiguousarray((matrix + 1).astype(np.uint8)).view(
                f"S{width}"
            )[:, 0]
            order = order[np.argsort(packed[order], kind="stable")]
        else:
            for column in range(matrix.shape[1] - 1, -1, -1):
                order = order[np.argsort(matrix[order, column], kind="stable")]
        if group_ids is not None:
            order = order[np.argsort(group_ids[order], kind="stable")]
        return order

    def _equal_derivation_mask(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """Mask of row pairs with identical (anchor, length, mismatches).

        Identical derivations spell identical content by construction — the
        cheap way to recognise the z near-duplicate leaves (certain regions
        repeat across estimation strings) without materialising their
        letters.
        """
        arrays = self._arrays
        counts_a = arrays.mm_start[rows_a + 1] - arrays.mm_start[rows_a]
        counts_b = arrays.mm_start[rows_b + 1] - arrays.mm_start[rows_b]
        same = (
            (arrays.anchors[rows_a] == arrays.anchors[rows_b])
            & (arrays.lengths[rows_a] == arrays.lengths[rows_b])
            & (counts_a == counts_b)
        )
        candidates = np.nonzero(same & (counts_a > 0))[0]
        if len(candidates):
            counts = counts_a[candidates]
            flat_a = _concat_ranges(
                arrays.mm_start[rows_a[candidates]],
                arrays.mm_start[rows_a[candidates] + 1],
            )
            flat_b = _concat_ranges(
                arrays.mm_start[rows_b[candidates]],
                arrays.mm_start[rows_b[candidates] + 1],
            )
            equal_entries = (arrays.mm_offset[flat_a] == arrays.mm_offset[flat_b]) & (
                arrays.mm_code[flat_a] == arrays.mm_code[flat_b]
            )
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            same[candidates] &= np.add.reduceat(equal_entries, starts) == counts
        return same

    def _sort_order(self) -> np.ndarray:
        """The sorted leaf order, computed with packed-key radix rounds.

        Round one sorts every leaf by its first :data:`PRESORT_PREFIX`
        letters (past-end marked, so proper prefixes sort first) with
        position/source as the final tie-breaks; rows still tied on content
        keep doubling the materialised prefix — but only for themselves —
        until the tie resolves, the run is recognised as identical-derivation
        duplicates (equal content by construction), or the widening limit is
        reached and the exact heavy-LCE comparator finishes the run.  The
        resulting permutation realises the unique total order — (content,
        length, position, source) — that :meth:`_compare` defines.
        """
        arrays = self._arrays
        count = len(arrays)
        order = np.arange(count, dtype=np.int64)
        if count <= 1:
            return order
        lengths = arrays.lengths
        positions = arrays.positions
        sources = arrays.sources
        packable = self._max_letter_code() + 1 < 255
        lo_col = 0
        width = self.PRESORT_PREFIX
        # (start, end) ranges of `order` whose rows are tied on all columns
        # below lo_col; initially a single run covering everything.
        segments: list[tuple[int, int]] = [(0, count)]
        while segments:
            rows = np.concatenate([order[start:end] for start, end in segments])
            slots = np.concatenate(
                [np.arange(start, end, dtype=np.int64) for start, end in segments]
            )
            if len(segments) == 1:
                group_ids = None
            else:
                group_ids = np.repeat(
                    np.arange(len(segments), dtype=np.int64),
                    [end - start for start, end in segments],
                )
            hi_col = lo_col + width
            matrix = self._content_matrix(rows, lo_col, hi_col)
            sub = self._stable_content_order(
                matrix, positions[rows], sources[rows], group_ids, packable
            )
            rows = rows[sub]
            matrix = matrix[sub]
            order[slots] = rows
            same_group = (
                np.ones(len(rows) - 1, dtype=bool)
                if group_ids is None
                else group_ids[sub][1:] == group_ids[sub][:-1]
            )
            # A row is only fully encoded once its past-end marker fell
            # inside the materialised window, i.e. when length < hi_col; a
            # leaf of length exactly hi_col is indistinguishable from a
            # longer one sharing its letters and must stay tied.
            tied = (
                same_group
                & (lengths[rows[1:]] >= hi_col)
                & (lengths[rows[:-1]] >= hi_col)
                & np.all(matrix[1:] == matrix[:-1], axis=1)
            )
            segments = []
            boundaries = np.nonzero(tied)[0]
            if len(boundaries):
                duplicate = self._equal_derivation_mask(
                    rows[boundaries], rows[boundaries + 1]
                )
                run_start = int(boundaries[0])
                previous = run_start
                runs = []
                all_duplicate = bool(duplicate[0])
                run_all_duplicates = []
                for boundary, is_duplicate in zip(boundaries[1:], duplicate[1:]):
                    boundary = int(boundary)
                    if boundary != previous + 1:
                        runs.append((run_start, previous + 2))
                        run_all_duplicates.append(all_duplicate)
                        run_start = boundary
                        all_duplicate = True
                    all_duplicate = all_duplicate and bool(is_duplicate)
                    previous = boundary
                runs.append((run_start, previous + 2))
                run_all_duplicates.append(all_duplicate)
                for (run_lo, run_hi), duplicates_only in zip(runs, run_all_duplicates):
                    if duplicates_only:
                        # Every neighbouring pair shares its derivation, so
                        # the whole run spells equal content of equal length:
                        # the (position, source) tie-break just applied is
                        # the final order.
                        continue
                    segments.append((int(slots[run_lo]), int(slots[run_lo]) + run_hi - run_lo))
            lo_col = hi_col
            width = min(2 * width, self.SORT_WIDEN_LIMIT)
            if segments and lo_col >= self.SORT_WIDEN_LIMIT:
                comparator = cmp_to_key(self._compare)
                for start, end in segments:
                    chunk = sorted(order[start:end], key=comparator)
                    order[start:end] = chunk
                break
        return order

    # -- searching -----------------------------------------------------------------------
    def _leaf_less_than_piece(self, index: int, piece, *, strict_prefix_smaller: bool) -> bool:
        """Whether leaf ``index`` sorts strictly before ``piece``.

        With ``strict_prefix_smaller=True`` a leaf that *starts with* the
        piece is not considered smaller (lower-bound behaviour); with
        ``False`` it is (upper-bound behaviour).
        """
        length = int(self._arrays.lengths[index])
        limit = min(length, len(piece))
        for offset in range(limit):
            letter = self.letter(index, offset)
            target = int(piece[offset])
            if letter != target:
                return letter < target
        if length < len(piece):
            return True  # leaf is a proper prefix of the piece: leaf < piece
        if strict_prefix_smaller:
            return False
        return True

    def prefix_range(self, piece, lo: int = 0, hi: int | None = None) -> tuple[int, int]:
        """Sorted-index range of leaves that have ``piece`` as a prefix.

        ``lo`` / ``hi`` optionally restrict the search to a sorted-index
        subrange known to bracket the answer (used by the batch search to
        refine a coarse vectorised range).
        """
        piece = [int(code) for code in piece]
        upper = len(self._arrays) if hi is None else hi
        lo_search, hi_search = lo, upper
        while lo_search < hi_search:
            mid = (lo_search + hi_search) // 2
            if self._leaf_less_than_piece(mid, piece, strict_prefix_smaller=True):
                lo_search = mid + 1
            else:
                hi_search = mid
        start = lo_search
        lo_search, hi_search = start, upper
        while lo_search < hi_search:
            mid = (lo_search + hi_search) // 2
            if self._leaf_less_than_piece(mid, piece, strict_prefix_smaller=False):
                lo_search = mid + 1
            else:
                hi_search = mid
        return start, lo_search

    # -- batch searching -------------------------------------------------------------------
    def prefix_matrix(self, width: int) -> np.ndarray:
        """Materialised ``(count × width)`` matrix of leaf prefixes.

        Entry ``[i, t]`` is the letter of sorted leaf ``i`` at offset ``t``,
        or ``-1`` past the leaf's end (which sorts before every real letter,
        matching the proper-prefix-first leaf order).
        """
        count = len(self._arrays)
        if count == 0:
            return np.empty((0, width), dtype=np.int64)
        return self._content_matrix(np.arange(count, dtype=np.int64), 0, width)

    def _batch_search_keys(self, width: int) -> np.ndarray | None:
        """Fixed-width byte keys of the leaf prefixes, for ``np.searchsorted``.

        Letters are shifted by +1 so that the past-end marker becomes the
        zero byte; returns None when a *leaf* letter would not fit below the
        upper-bound sentinel byte (code ≥ 254), in which case callers fall
        back to the scalar search.  Query pieces may still carry larger
        codes: every code above all leaf letters compares identically, so
        queries saturate at byte 255 without changing the order.
        """
        if self._max_letter is None:
            self._max_letter = self._max_letter_code()
        if self._max_letter + 1 >= 255:
            return None
        if self._search_keys is None or self._search_width < width:
            matrix = (self.prefix_matrix(width) + 1).astype(np.uint8)
            self._search_keys = np.ascontiguousarray(matrix).view(f"S{width}")[:, 0]
            self._search_width = width
        return self._search_keys

    def _seed_search_caches(self, keys: np.ndarray | None, width: int, max_letter: int | None) -> None:
        """Adopt still-valid search caches carried over by an update merge."""
        self._max_letter = max_letter
        if keys is not None:
            self._search_keys = keys
            self._search_width = width

    def invalidate_search_caches(self) -> None:
        """Drop the cached byte keys and trie (content changed in place)."""
        self._search_keys = None
        self._search_width = 0
        self._max_letter = None
        self._trie = None

    def prefix_range_many(self, pieces: list) -> np.ndarray:
        """Vectorised :meth:`prefix_range` over a batch of query pieces.

        Returns a ``(B × 2)`` array of ``[lo, hi)`` sorted-index ranges.  All
        lower and upper bounds are found with two ``np.searchsorted`` calls
        over cached byte keys; pieces longer than the materialised prefix are
        refined with the exact comparator inside the narrowed range.
        """
        ranges = np.zeros((len(pieces), 2), dtype=np.int64)
        if not pieces or not len(self._arrays):
            return ranges
        width = min(max(len(piece) for piece in pieces), self.SEARCH_PREFIX_LIMIT)
        keys = self._batch_search_keys(width)
        if keys is None:
            for row, piece in enumerate(pieces):
                ranges[row] = self.prefix_range(piece)
            return ranges
        effective_width = self._search_width
        low_queries = np.zeros((len(pieces), effective_width), dtype=np.uint8)
        high_queries = np.full((len(pieces), effective_width), 255, dtype=np.uint8)
        for row, piece in enumerate(pieces):
            head = np.asarray(piece[:effective_width], dtype=np.int64) + 1
            # Codes above every leaf letter (≤ 253 here) saturate at the
            # sentinel byte: they can never equal a leaf letter, and 255 is
            # greater than every leaf byte, so the order is preserved.
            head = np.minimum(head, 255)
            low_queries[row, : len(head)] = head
            high_queries[row, : len(head)] = head
        low_keys = np.ascontiguousarray(low_queries).view(f"S{effective_width}")[:, 0]
        high_keys = np.ascontiguousarray(high_queries).view(f"S{effective_width}")[:, 0]
        ranges[:, 0] = np.searchsorted(keys, low_keys, side="left")
        ranges[:, 1] = np.searchsorted(keys, high_keys, side="right")
        for row, piece in enumerate(pieces):
            if len(piece) > effective_width:
                ranges[row] = self.prefix_range(
                    piece, lo=int(ranges[row, 0]), hi=int(ranges[row, 1])
                )
        return ranges

    # -- trie ------------------------------------------------------------------------------
    def adjacent_lcps(self) -> np.ndarray:
        """LCP of each consecutive sorted leaf pair (cached; persisted by the store).

        Computed vectorised: identical-derivation neighbours short-circuit to
        their common length, every other pair is resolved by comparing
        materialised content blocks in widening rounds, and only pairs that
        agree beyond :data:`SORT_WIDEN_LIMIT` letters fall back to the exact
        heavy-LCE walk.
        """
        if self._cached_lcps is not None:
            return self._cached_lcps
        arrays = self._arrays
        count = len(arrays)
        lcps = np.zeros(count, dtype=np.int64)
        if count >= 2:
            lengths = arrays.lengths
            pairs = np.arange(1, count, dtype=np.int64)
            limits = np.minimum(lengths[pairs - 1], lengths[pairs])
            same = self._equal_derivation_mask(pairs - 1, pairs)
            lcps[pairs[same]] = limits[same]
            remaining = pairs[~same]
            lo = 0
            width = self.PRESORT_PREFIX
            while len(remaining):
                hi = lo + width
                left = self._content_matrix(remaining - 1, lo, hi)
                right = self._content_matrix(remaining, lo, hi)
                difference = left != right
                found = difference.any(axis=1)
                lcps[remaining[found]] = lo + np.argmax(difference[found], axis=1)
                remaining = remaining[~found]
                if len(remaining):
                    pair_limits = np.minimum(
                        lengths[remaining - 1], lengths[remaining]
                    )
                    resolved = pair_limits <= hi
                    lcps[remaining[resolved]] = pair_limits[resolved]
                    remaining = remaining[~resolved]
                lo = hi
                width = min(2 * width, self.SORT_WIDEN_LIMIT)
                if len(remaining) and lo >= self.SORT_WIDEN_LIMIT:
                    for index in remaining:
                        lcps[index] = self._leaf_lcp(int(index) - 1, int(index))
                    break
        self._cached_lcps = lcps
        return self._cached_lcps

    def build_trie(self) -> CompactedTrie:
        """Compacted trie over the sorted leaves (the tree-index variants)."""
        if self._trie is None:
            self._trie = CompactedTrie(
                self._arrays.lengths,
                self.adjacent_lcps(),
                self.letter,
                bulk_letter=self.letters_at,
            )
        return self._trie

    def adopt_trie(self, trie: CompactedTrie) -> None:
        """Install a persisted trie so :meth:`build_trie` skips re-derivation."""
        self._trie = trie

    # -- size accounting -------------------------------------------------------------------
    def total_mismatches(self) -> int:
        """Total number of stored mismatches across all leaves."""
        return len(self._arrays.mm_offset)

    def size_bytes(self, model: SpaceModel = DEFAULT_SPACE_MODEL, *, as_tree: bool = False) -> int:
        """Charged size of the collection (array layout, optionally + tree nodes)."""
        count = len(self._arrays)
        # Per leaf: anchor, length, position (3 words) + mismatch entries.
        total = model.words(3 * count) + model.words(2 * self.total_mismatches())
        if as_tree:
            trie = self.build_trie()
            total += model.tree_nodes(trie.node_count)
        return total


@dataclass
class MinimizerIndexData:
    """Everything the MWST / MWSA / grid indexes share.

    ``forward`` holds the ``Tsuff`` content (factors read rightward from
    their minimizer), ``backward`` the ``Tpref`` content (read leftward);
    ``pairs`` links leaves with equal minimizer labels and feeds the 2D grid
    of the *-G* variants (``None`` when built by the space-efficient
    construction, which does not produce the pairing).
    """

    source: WeightedString
    z: float
    ell: int
    scheme: MinimizerScheme
    heavy: HeavyString
    forward: LeafCollection
    backward: LeafCollection
    pairs: list[tuple[int, int]] | None = None
    construction: str = "estimation"
    counters: dict = field(default_factory=dict)
    #: The z-estimation the leaves were sampled from, retained (when built
    #: through the estimation path) so point updates can diff old vs new
    #: derivations and re-derive only the affected leaves.  ``None`` for the
    #: space-efficient construction and for store-loaded data, which repair
    #: through a full rebuild instead.
    estimation: ZEstimation | None = None

    # -- query plumbing shared by all variants ------------------------------------------
    def split_pattern(self, codes, mu: int | None = None) -> tuple[int, list[int], list[int]]:
        """Leftmost minimizer and the two query pieces (forward, backward).

        ``mu`` may be passed in when it was already computed (the batch
        engine computes the minimizers of a whole pattern batch at once).
        """
        if mu is None:
            mu = self.scheme.leftmost_pattern_minimizer(codes)
        forward_piece = [int(code) for code in codes[mu:]]
        backward_piece = [int(code) for code in reversed(codes[: mu + 1])]
        return mu, forward_piece, backward_piece

    def candidate_positions(self, leaf_indices, collection: LeafCollection, mu: int):
        """Candidate occurrence starts derived from matched leaves."""
        positions = collection.positions
        return {int(positions[index]) - mu for index in leaf_indices}

    def size_bytes(
        self,
        model: SpaceModel = DEFAULT_SPACE_MODEL,
        *,
        as_tree: bool = False,
        with_grid: bool = False,
    ) -> int:
        """Charged index size: heavy string + both collections (+ grid points)."""
        total = model.codes(len(self.source)) + model.probabilities(len(self.source))
        total += self.forward.size_bytes(model, as_tree=as_tree)
        total += self.backward.size_bytes(model, as_tree=as_tree)
        if with_grid and self.pairs is not None:
            total += model.words(4 * len(self.pairs))
        return total


def _iter_sampled_strings(
    source: WeightedString,
    ell: int,
    scheme: MinimizerScheme,
    estimation: ZEstimation,
):
    """Yield ``(j, S_j, π_j, minimizer positions)`` for strings with samples."""
    n = len(source)
    for j in range(estimation.width):
        string_j = estimation.strings[j]
        ends_j = estimation.ends[j]
        if n >= ell:
            starts = np.arange(n - ell + 1, dtype=np.int64)
            valid_window = ends_j[: n - ell + 1] >= starts + ell - 1
        else:
            valid_window = np.zeros(0, dtype=bool)
        if not valid_window.any():
            continue
        minimizer_positions = scheme.minimizer_positions(string_j, valid_window)
        if not minimizer_positions:
            continue
        yield j, string_j, ends_j, np.asarray(minimizer_positions, dtype=np.int64)


def _derive_leaf_arrays_for_string(
    n: int,
    string_j: np.ndarray,
    ends_j: np.ndarray,
    mismatch_positions: np.ndarray,
    qs: np.ndarray,
    j: int,
) -> tuple[LeafArrays, LeafArrays]:
    """The forward/backward leaves of the given minimizer positions of ``S_j``.

    For each (ascending) minimizer position ``q``, the forward leaf is the
    longest property-respecting substring of ``S_j`` starting at ``q`` and
    the backward leaf the longest one ending at ``q``, read leftward; both
    are encoded relative to the heavy string as an anchor plus the mismatch
    offsets.  Row ``i`` of both blocks carries the same ``(q, j)`` label.
    The construction feeds it every sampled position; the point-update
    repair feeds it only the re-derived ones.
    """
    source_ids = np.full(len(qs), j, dtype=np.int64)

    forward_ends = ends_j[qs]
    forward_lo = np.searchsorted(mismatch_positions, qs, side="left")
    forward_hi = np.searchsorted(mismatch_positions, forward_ends, side="right")
    forward_flat = _concat_ranges(forward_lo, forward_hi)
    forward_counts = forward_hi - forward_lo
    forward = LeafArrays(
        anchors=qs,
        lengths=forward_ends - qs + 1,
        positions=qs,
        sources=source_ids,
        mm_start=np.concatenate([[0], np.cumsum(forward_counts)]),
        mm_offset=mismatch_positions[forward_flat] - np.repeat(qs, forward_counts),
        mm_code=string_j[mismatch_positions[forward_flat]],
    )

    backward_starts = np.searchsorted(ends_j, qs, side="left")
    backward_lo = np.searchsorted(mismatch_positions, backward_starts, side="left")
    backward_hi = np.searchsorted(mismatch_positions, qs, side="right")
    # Offsets are q - p with p ascending inside each range, so reading
    # each range in reverse yields ascending mismatch offsets.
    backward_flat = _concat_ranges_reversed(backward_lo, backward_hi)
    backward_counts = backward_hi - backward_lo
    backward = LeafArrays(
        anchors=n - 1 - qs,
        lengths=qs - backward_starts + 1,
        positions=qs,
        sources=source_ids,
        mm_start=np.concatenate([[0], np.cumsum(backward_counts)]),
        mm_offset=np.repeat(qs, backward_counts) - mismatch_positions[backward_flat],
        mm_code=string_j[mismatch_positions[backward_flat]],
    )
    return forward, backward


def build_leaf_arrays_from_estimation(
    source: WeightedString,
    z: float,
    ell: int,
    scheme: MinimizerScheme,
    estimation: ZEstimation,
    heavy: HeavyString,
) -> tuple[LeafArrays, LeafArrays]:
    """Sample the z-estimation with minimizers (the Lemma 5 construction).

    For every string ``S_j`` and every property-respecting window of length
    ℓ, the window's minimizer position ``q`` produces one forward leaf (the
    longest property-respecting substring of ``S_j`` starting at ``q``) and
    one backward leaf (the longest one ending at ``q``, reversed), both
    encoded relative to the heavy string.  Row ``i`` of the forward block and
    row ``i`` of the backward block form the leaf pair of one ``(q, j)``
    label; leaves are derived with searchsorted/gather passes over the
    mismatch positions of each ``S_j``.
    """
    n = len(source)
    heavy_codes = heavy.codes
    forward_parts: list[LeafArrays] = []
    backward_parts: list[LeafArrays] = []
    for j, string_j, ends_j, qs in _iter_sampled_strings(source, ell, scheme, estimation):
        mismatch_positions = np.nonzero(string_j != heavy_codes)[0]
        forward, backward = _derive_leaf_arrays_for_string(
            n, string_j, ends_j, mismatch_positions, qs, j
        )
        forward_parts.append(forward)
        backward_parts.append(backward)
    return LeafArrays.concatenate(forward_parts), LeafArrays.concatenate(backward_parts)


def build_index_data_from_estimation(
    source: WeightedString,
    z: float,
    ell: int,
    *,
    scheme: MinimizerScheme | None = None,
    estimation: ZEstimation | None = None,
    keep_pairs: bool = True,
) -> MinimizerIndexData:
    """Build the shared minimizer index data through the explicit z-estimation path."""
    if ell <= 0:
        raise ConstructionError("ell must be positive")
    if scheme is None:
        scheme = MinimizerScheme(ell, source.sigma)
    if estimation is None:
        estimation = build_z_estimation(source, z)
    heavy = HeavyString(source)
    forward_arrays, backward_arrays = build_leaf_arrays_from_estimation(
        source, z, ell, scheme, estimation, heavy
    )
    forward = LeafCollection(forward_arrays, heavy.codes)
    backward = LeafCollection(backward_arrays, heavy.codes[::-1].copy())
    pairs = None
    if keep_pairs:
        # Raw row i of both blocks carries the same (q, j) label.
        pairs = list(
            zip(
                (int(x) for x in forward.raw_to_sorted),
                (int(y) for y in backward.raw_to_sorted),
            )
        )
    return MinimizerIndexData(
        source=source,
        z=z,
        ell=ell,
        scheme=scheme,
        heavy=heavy,
        forward=forward,
        backward=backward,
        pairs=pairs,
        construction="estimation",
        counters={
            "forward_leaves": len(forward),
            "backward_leaves": len(backward),
            "estimation_entries": estimation.width * estimation.length,
        },
        estimation=estimation,
    )


# --------------------------------------------------------------------------- #
# point updates: localized leaf re-derivation                                  #
# --------------------------------------------------------------------------- #
def _batch_leaf_less(
    collection: LeafCollection, rows_a: np.ndarray, rows_b: np.ndarray
) -> np.ndarray:
    """Vectorised exact leaf order: mask of pairs with ``rows_a[i] < rows_b[i]``.

    Equivalent to :meth:`LeafCollection._compare` but driven entirely by
    :meth:`LeafCollection._content_matrix` strips (past-end ``-1`` sorts
    proper prefixes first), so it needs no LCE index over the reference.
    Pairs still tied after their content is exhausted — the z
    identical-content duplicates — fall through to the (position, source)
    tie-break.  The incremental merge resolves its packed-key ties with
    this.
    """
    arrays = collection.arrays
    count = len(rows_a)
    verdict = np.zeros(count, dtype=np.int8)
    lengths_a = arrays.lengths[rows_a]
    lengths_b = arrays.lengths[rows_b]
    pair_limits = np.maximum(lengths_a, lengths_b)
    undecided = np.arange(count, dtype=np.int64)
    column = 0
    strip = 64
    while len(undecided):
        limit = int(pair_limits[undecided].max(initial=0))
        if column >= limit:
            break
        strip_a = collection._content_matrix(rows_a[undecided], column, column + strip)
        strip_b = collection._content_matrix(rows_b[undecided], column, column + strip)
        differs = strip_a != strip_b
        has_diff = differs.any(axis=1)
        hit = np.nonzero(has_diff)[0]
        if len(hit):
            first_diff = np.argmax(differs[hit], axis=1)
            letters_a = strip_a[hit, first_diff]
            letters_b = strip_b[hit, first_diff]
            verdict[undecided[hit]] = np.where(letters_a < letters_b, -1, 1)
        exhausted = pair_limits[undecided] <= column + strip
        undecided = undecided[~has_diff & ~exhausted]
        column += strip
    tied = verdict == 0  # identical content (and length): label tie-break
    if tied.any():
        positions_a = arrays.positions[rows_a[tied]]
        positions_b = arrays.positions[rows_b[tied]]
        sources_a = arrays.sources[rows_a[tied]]
        sources_b = arrays.sources[rows_b[tied]]
        less = (positions_a < positions_b) | (
            (positions_a == positions_b) & (sources_a < sources_b)
        )
        verdict[tied] = np.where(less, -1, 1)
    return verdict < 0


def _merge_sorted_runs(
    old_collection: LeafCollection,
    kept_old_index: np.ndarray,
    kept_arrays: LeafArrays,
    fresh_arrays: LeafArrays,
    reference: np.ndarray,
) -> tuple[LeafCollection, np.ndarray] | None:
    """Merge the still-sorted kept rows with a small sorted fresh block.

    The kept rows keep their old relative order (slicing a sorted sequence
    stays sorted) and the fresh block is sorted on its own, so the unique
    total leaf order reduces to a two-run merge: each fresh leaf's rank
    among the kept rows is found with one ``searchsorted`` over packed
    content-prefix byte keys, and only runs tied on the whole prefix fall
    back to the exact comparator.  Returns ``(collection, kept_target)``
    with the merged collection built ``presorted`` (no radix re-sort), or
    ``None`` when the packed-key path does not apply and the caller should
    re-sort from scratch.
    """
    kept_count = len(kept_arrays)
    fresh_count = len(fresh_arrays)
    if fresh_count == 0:
        collection = LeafCollection(kept_arrays, reference, presorted=True)
        old_keys = old_collection._search_keys
        if old_keys is not None and old_collection._max_letter is not None:
            collection._seed_search_caches(
                old_keys[kept_old_index],
                old_collection._search_width,
                old_collection._max_letter,
            )
        return collection, np.arange(kept_count, dtype=np.int64)
    if kept_count == 0 or fresh_count > kept_count:
        return None
    fresh_sorted = LeafCollection(fresh_arrays, reference).arrays
    probe = LeafCollection(
        LeafArrays.concatenate([kept_arrays, fresh_sorted]), reference, presorted=True
    )
    # ``probe`` is *not* globally sorted — it only provides content access
    # (letters, packed keys, exact comparisons) over both blocks at once.
    if probe._max_letter_code() + 1 >= 255:
        return None
    old_keys = old_collection._search_keys
    if (
        old_keys is not None
        and old_collection._max_letter is not None
        and old_collection._max_letter + 1 < 255
        and old_collection._search_width >= LeafCollection.PRESORT_PREFIX
    ):
        # Query-seeded keys can be narrower than the presort prefix (their
        # width tracks the pattern pieces); narrow keys tie on most of the z
        # near-duplicate leaves, so recompute at full width instead.
        width = old_collection._search_width
        kept_keys = old_keys[kept_old_index]
    else:
        width = LeafCollection.PRESORT_PREFIX
        kept_matrix = (
            probe._content_matrix(np.arange(kept_count, dtype=np.int64), 0, width) + 1
        ).astype(np.uint8)
        kept_keys = np.ascontiguousarray(kept_matrix).view(f"S{width}")[:, 0]
    fresh_rows = kept_count + np.arange(fresh_count, dtype=np.int64)
    fresh_matrix = (probe._content_matrix(fresh_rows, 0, width) + 1).astype(np.uint8)
    fresh_keys = np.ascontiguousarray(fresh_matrix).view(f"S{width}")[:, 0]
    ranks = np.searchsorted(kept_keys, fresh_keys, side="left").astype(np.int64)
    upper = np.searchsorted(kept_keys, fresh_keys, side="right")
    ties = np.nonzero(upper > ranks)[0]
    if len(ties):
        # Resolve all packed-key ties with one batched exact comparison: a
        # fresh leaf's rank inside its tied kept run is the number of run
        # rows strictly below it (the run is itself sorted).
        counts = upper[ties] - ranks[ties]
        pair_kept = _concat_ranges(ranks[ties], upper[ties].astype(np.int64))
        pair_fresh = np.repeat(fresh_rows[ties], counts)
        less = _batch_leaf_less(probe, pair_kept, pair_fresh)
        boundaries = np.concatenate([[0], np.cumsum(counts)[:-1]])
        ranks[ties] += np.add.reduceat(less, boundaries)
    if np.any(np.diff(ranks) < 0):
        return None  # cannot happen for a correct total order; re-sort to be safe
    merged_count = kept_count + fresh_count
    kept_target = np.arange(kept_count, dtype=np.int64) + np.searchsorted(
        ranks, np.arange(kept_count, dtype=np.int64), side="right"
    )
    fresh_target = ranks + np.arange(fresh_count, dtype=np.int64)
    order = np.empty(merged_count, dtype=np.int64)
    order[kept_target] = np.arange(kept_count, dtype=np.int64)
    order[fresh_target] = fresh_rows
    collection = LeafCollection(probe.arrays.take(order), reference, presorted=True)
    # Seed the packed-key cache with the keys this merge just used — the
    # next update (and prefix searches up to ``width``) reuse them instead
    # of re-materialising the kept block's content prefix.
    merged_keys = np.empty(merged_count, dtype=kept_keys.dtype)
    merged_keys[kept_target] = kept_keys
    merged_keys[fresh_target] = fresh_keys
    collection._seed_search_caches(merged_keys, width, probe._max_letter_code())
    return collection, kept_target


def _merge_collection(
    old_collection: LeafCollection,
    dirty: set,
    fresh_arrays: LeafArrays,
    reference: np.ndarray,
) -> LeafCollection:
    """Merge an update's surviving and re-derived leaves into a sorted collection.

    The kept rows are sliced out of the old parallel arrays and merged with
    the fresh leaves' arrays through :func:`_merge_sorted_runs` (two-run
    merge over packed byte keys); when that fast path does not apply the
    concatenation is re-sorted through the same vectorised radix sort a
    fresh build uses.  The leaf order is a unique total order, so both
    realise exactly the stepwise merge.  Adjacent-LCP values are carried
    over where the old neighbourhood survived intact (the LCP of two
    non-adjacent old leaves is the min of the old adjacent LCPs between
    them) and recomputed directly only at the seams around inserted leaves.
    The cached search byte keys survive the same way: kept rows keep their
    packed keys, only the inserted rows' keys are computed.
    """
    old_arrays = old_collection.arrays
    count = len(old_arrays)
    if dirty:
        span = (
            int(
                max(
                    old_arrays.positions.max(initial=0),
                    max(position for _, position in dirty),
                )
            )
            + 2
        )
        leaf_keys = old_arrays.sources * span + old_arrays.positions
        dirty_keys = np.asarray(
            sorted(source * span + position for source, position in dirty),
            dtype=np.int64,
        )
        kept_mask = ~np.isin(leaf_keys, dirty_keys)
    else:
        kept_mask = np.ones(count, dtype=bool)
    kept_old_index = np.nonzero(kept_mask)[0]
    kept_arrays = old_arrays.take(kept_old_index)
    merged_count = len(kept_arrays) + len(fresh_arrays)
    fast = _merge_sorted_runs(
        old_collection, kept_old_index, kept_arrays, fresh_arrays, reference
    )
    if fast is not None:
        merged, kept_target = fast
    else:
        merged = LeafCollection(
            LeafArrays.concatenate([kept_arrays, fresh_arrays]), reference
        )
        kept_target = merged.raw_to_sorted[: len(kept_arrays)]
    # Old sorted index of each merged row, or -1 for a fresh leaf.
    origins = np.full(merged_count, -1, dtype=np.int64)
    origins[kept_target] = kept_old_index

    old_lcps = old_collection._cached_lcps
    if old_lcps is not None and merged_count:
        lcps = np.zeros(merged_count, dtype=np.int64)
        if merged_count > 1:
            previous_origin = origins[:-1]
            current_origin = origins[1:]
            target = np.arange(1, merged_count, dtype=np.int64)
            adjacent = (previous_origin >= 0) & (current_origin == previous_origin + 1)
            lcps[target[adjacent]] = old_lcps[current_origin[adjacent]]
            gap = (
                (previous_origin >= 0)
                & (current_origin > previous_origin + 1)
            )
            if gap.any():
                # Old leaves with dirty leaves dropped in between: the LCP
                # telescopes to the min over the removed stretch.
                gap_rows = np.nonzero(gap)[0]
                for row in gap_rows:
                    lcps[row + 1] = int(
                        np.min(old_lcps[previous_origin[row] + 1 : current_origin[row] + 1])
                    )
            seams = np.nonzero(~(adjacent | gap))[0]
            for row in seams:
                lcps[row + 1] = merged._leaf_lcp(int(row), int(row) + 1)
        merged._cached_lcps = lcps
    # Carry the still-valid search caches over: kept rows keep their packed
    # byte keys, the inserted rows' keys are computed at the cached width.
    # (The fast merge already seeded its own — usually wider — keys.)
    old_keys = old_collection._search_keys
    if (
        merged._search_keys is None
        and old_keys is not None
        and old_collection._max_letter is not None
        and old_collection._max_letter + 1 < 255
    ):
        width = old_collection._search_width
        fresh_slots = np.nonzero(origins < 0)[0]
        fresh_matrix = (
            merged._content_matrix(fresh_slots, 0, width) + 1
        ).astype(np.uint8)
        fresh_keys = np.ascontiguousarray(fresh_matrix).view(f"S{width}")[:, 0]
        merged_keys = np.empty(merged_count, dtype=old_keys.dtype)
        merged_keys[kept_target] = old_keys[kept_old_index]
        merged_keys[fresh_slots] = fresh_keys
        merged._seed_search_caches(merged_keys, width, merged._max_letter_code())
    return merged


def _updated_minimizer_positions(
    scheme: MinimizerScheme,
    ell: int,
    string_new: np.ndarray,
    valid_new: np.ndarray,
    valid_old: np.ndarray,
    q_old: np.ndarray,
    changed: np.ndarray,
) -> np.ndarray:
    """Minimizer positions of an updated estimation string, recomputed locally.

    Minimizer choice is a pure function of a window's letters, so only
    windows whose letters or validity changed can select differently.  Every
    position within reach of such a window is re-resolved by recomputing the
    selections of *all* windows overlapping it; positions out of reach keep
    their old selected/unselected status (``q_old``, the old string's exact
    selection set).  Falls back to the full scan when the changed regions
    cover most of the string.
    """
    window_count = len(valid_new)
    if window_count <= 0:
        return np.empty(0, dtype=np.int64)
    flips = np.nonzero(valid_new != valid_old)[0]
    if not len(changed) and not len(flips):
        return q_old.astype(np.int64, copy=True)
    lo = np.concatenate([np.maximum(changed - ell + 1, 0), flips])
    hi = np.concatenate([np.minimum(changed, window_count - 1), flips])
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    # Merge changed-window intervals, closing gaps below 2ℓ so the guard
    # regions around distinct intervals stay disjoint.
    intervals: list[tuple[int, int]] = []
    current_lo, current_hi = int(lo[0]), int(hi[0])
    for next_lo, next_hi in zip(lo[1:], hi[1:]):
        if int(next_lo) <= current_hi + 2 * ell:
            current_hi = max(current_hi, int(next_hi))
        else:
            intervals.append((current_lo, current_hi))
            current_lo, current_hi = int(next_lo), int(next_hi)
    intervals.append((current_lo, current_hi))
    recompute_span = sum(
        min(b + ell, window_count) - max(a - ell + 1, 0) for a, b in intervals
    )
    if 2 * recompute_span >= window_count or len(intervals) > 16:
        # Many scattered intervals cost more in per-call overhead than one
        # pass over the whole string.
        return np.asarray(
            scheme.minimizer_positions(string_new, valid_new), dtype=np.int64
        )
    drop = np.zeros(len(q_old), dtype=bool)
    fresh_pieces: list[np.ndarray] = []
    for a, b in intervals:
        guard_lo, guard_hi = a, b + ell - 1  # positions a changed window can select
        window_lo = max(a - ell + 1, 0)
        window_hi = min(b + ell - 1, window_count - 1)  # windows reaching the guard
        selected = (
            np.asarray(
                scheme.minimizer_positions(
                    string_new[window_lo : window_hi + ell],
                    valid_new[window_lo : window_hi + 1],
                ),
                dtype=np.int64,
            )
            + window_lo
        )
        fresh_pieces.append(selected[(selected >= guard_lo) & (selected <= guard_hi)])
        drop |= (q_old >= guard_lo) & (q_old <= guard_hi)
    return np.union1d(q_old[~drop], np.concatenate(fresh_pieces)).astype(np.int64)


def apply_updates_to_data(
    data: MinimizerIndexData,
    positions,
    *,
    max_dirty_fraction: float = 0.25,
) -> tuple[MinimizerIndexData, dict] | None:
    """Localized repair of minimizer index data after point updates.

    ``data.source`` must already carry the new rows.  The old and new
    derivations are diffed exactly: the z-estimation is re-derived — resumed
    from the last builder checkpoint at-or-before the first updated position
    when the old estimation carries checkpoints, replayed from 0 otherwise —
    and the expensive leaf machinery (per-leaf derivation, sorting, adjacent
    LCPs) is only re-run for leaves whose derivation actually changed: the
    minimizer windows within ``2ℓ−1`` positions of a touched row plus
    whatever the estimation ripple reaches (property ends crossing an
    updated position, re-assigned estimation letters).  Every surviving leaf
    is reused verbatim, so the result is leaf-for-leaf identical to a fresh
    build over the mutated string.

    Returns ``(new_data, details)``, or ``None`` when the data cannot be
    repaired locally (space-efficient construction, store-loaded data
    without its estimation, or a dirty set so large a full rebuild is
    cheaper) — callers then fall back to a full rebuild.
    """
    if data.construction != "estimation" or data.estimation is None:
        return None
    source = data.source
    scheme = data.scheme
    ell = data.ell
    n = len(source)
    old_estimation = data.estimation
    updated = np.asarray(sorted({int(p) for p in positions}), dtype=np.int64)
    new_estimation, replay_info = resume_z_estimation(
        old_estimation, source, data.z, updated
    )
    if (
        new_estimation.width != old_estimation.width
        or new_estimation.length != old_estimation.length
    ):
        return None  # cannot happen for a fixed z; guard anyway
    new_heavy = data.heavy.updated_copy(source, updated)
    del positions  # the deduplicated `updated` is the canonical batch from here on

    forward_sources = data.forward.sources
    forward_positions = data.forward.positions
    label_order = np.lexsort((forward_positions, forward_sources))
    label_bounds = np.searchsorted(
        forward_sources[label_order],
        np.arange(old_estimation.width + 1, dtype=np.int64),
    )
    old_labels: dict[int, np.ndarray] = {
        j: forward_positions[label_order[label_bounds[j] : label_bounds[j + 1]]]
        for j in range(old_estimation.width)
    }

    dirty: set[tuple[int, int]] = set()
    fresh_specs: list[tuple[int, int]] = []
    window_starts = np.arange(max(n - ell + 1, 0), dtype=np.int64)
    for j in range(new_estimation.width):
        string_old = old_estimation.strings[j]
        string_new = new_estimation.strings[j]
        ends_old = old_estimation.ends[j]
        ends_new = new_estimation.ends[j]
        changed = np.union1d(np.nonzero(string_old != string_new)[0], updated)
        q_old = old_labels.get(j, np.empty(0, dtype=np.int64))
        if n >= ell:
            valid_old = ends_old[: n - ell + 1] >= window_starts + ell - 1
            valid_new = ends_new[: n - ell + 1] >= window_starts + ell - 1
            q_new = _updated_minimizer_positions(
                scheme, ell, string_new, valid_new, valid_old, q_old, changed
            )
        else:
            q_new = np.empty(0, dtype=np.int64)
        for q in np.setdiff1d(q_old, q_new, assume_unique=True):
            dirty.add((j, int(q)))
        for q in np.setdiff1d(q_new, q_old, assume_unique=True):
            dirty.add((j, int(q)))
            fresh_specs.append((j, int(q)))
        retained = np.intersect1d(q_old, q_new, assume_unique=True)
        if len(retained):
            forward_same = ends_old[retained] == ends_new[retained]
            backward_same = np.searchsorted(ends_old, retained, side="left") == (
                np.searchsorted(ends_new, retained, side="left")
            )
            # A retained leaf also changes when any re-assigned letter (in
            # S_j or in the heavy reference) falls inside its factor span
            # [backward_start, forward_end].
            span_lo = np.searchsorted(ends_new, retained, side="left")
            span_hi = ends_new[retained]
            letters_hit = np.searchsorted(changed, span_lo, side="left") < (
                np.searchsorted(changed, span_hi, side="right")
            )
            for q in retained[~(forward_same & backward_same) | letters_hit]:
                dirty.add((j, int(q)))
                fresh_specs.append((j, int(q)))

    total_leaves = max(1, len(data.forward))
    if len(dirty) > 64 and len(dirty) > max_dirty_fraction * total_leaves:
        return None

    fresh_forward_parts: list[LeafArrays] = []
    fresh_backward_parts: list[LeafArrays] = []
    by_string: dict[int, list[int]] = {}
    for j, q in fresh_specs:
        by_string.setdefault(j, []).append(q)
    for j, qs in sorted(by_string.items()):
        string_new = new_estimation.strings[j]
        ends_new = new_estimation.ends[j]
        mismatch_positions = np.nonzero(string_new != new_heavy.codes)[0]
        forward_block, backward_block = _derive_leaf_arrays_for_string(
            n,
            string_new,
            ends_new,
            mismatch_positions,
            np.asarray(sorted(qs), dtype=np.int64),
            j,
        )
        fresh_forward_parts.append(forward_block)
        fresh_backward_parts.append(backward_block)
    fresh_forward = LeafArrays.concatenate(fresh_forward_parts)
    fresh_backward = LeafArrays.concatenate(fresh_backward_parts)

    forward_reference = new_heavy.codes
    backward_reference = forward_reference[::-1].copy()
    forward = _merge_collection(data.forward, dirty, fresh_forward, forward_reference)
    backward = _merge_collection(
        data.backward, dirty, fresh_backward, backward_reference
    )
    pairs = None
    if data.pairs is not None:
        # Forward/backward blocks carry the same (source, position) label
        # sets, so the pairing is one searchsorted over packed labels.
        stride = n + 1
        backward_keys = backward.sources * stride + backward.positions
        forward_keys = forward.sources * stride + forward.positions
        backward_order = np.argsort(backward_keys)
        slots = backward_order[
            np.searchsorted(backward_keys[backward_order], forward_keys)
        ]
        pairs = list(zip(range(len(forward_keys)), slots.tolist()))
    counters = dict(data.counters)
    counters["forward_leaves"] = len(forward)
    counters["backward_leaves"] = len(backward)
    counters["estimation_entries"] = new_estimation.width * new_estimation.length
    new_data = MinimizerIndexData(
        source=source,
        z=data.z,
        ell=ell,
        scheme=scheme,
        heavy=new_heavy,
        forward=forward,
        backward=backward,
        pairs=pairs,
        construction="estimation",
        counters=counters,
        estimation=new_estimation,
    )
    details = {
        "strategy": "localized",
        "rederived_leaves": len(fresh_specs),
        "dropped_leaves": len(dirty) - len(fresh_specs),
        "reused_leaves": len(forward) - len(fresh_specs),
        **replay_info,
    }
    return new_data, details
