"""String properties Π and property-respecting occurrences (Section 2).

A *property* of a string ``S`` of length ``n`` is a hereditary collection of
intervals of ``[0, n)``.  As in the paper we represent it by an array
``π[0..n-1]`` where ``π[i]`` is the (inclusive) end of the longest interval
starting at ``i`` (or ``i - 1`` when ``i`` is in no interval).  A pattern
``P`` occurs at ``i`` *respecting* the property iff it occurs there as a
plain substring and ``i + |P| - 1 <= π[i]``.

The z-estimation (``core.estimation``) produces one ``(S_j, π_j)`` pair per
string; the weighted indexes consume them through this module.  The
estimation *builder* maintains a laminar family of token groups over the
open (not-yet-finalised) property levels; :class:`GroupTreeArrays` is the
flat-array encoding of that family — a preorder parent array plus CSR
segment/member blocks, the same shape as the compacted-trie CSR arrays —
used to snapshot builder state into store-persistable checkpoints.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import WeightedStringError

__all__ = [
    "PropertyArray",
    "property_occurrences",
    "GroupTreeArrays",
    "flatten_group_tree",
    "restore_group_tree",
]


class PropertyArray:
    """The array representation ``π`` of a hereditary interval property.

    Parameters
    ----------
    ends:
        ``ends[i]`` is the inclusive end of the longest valid interval
        starting at ``i``; ``i - 1`` means position ``i`` is covered by no
        interval.  The array must be monotone non-decreasing and satisfy
        ``i - 1 <= ends[i] < n``.
    """

    __slots__ = ("_ends",)

    def __init__(self, ends: Sequence[int]) -> None:
        array = np.asarray(ends, dtype=np.int64)
        if array.ndim != 1:
            raise WeightedStringError("property array must be one-dimensional")
        n = len(array)
        positions = np.arange(n, dtype=np.int64)
        if np.any(array < positions - 1) or np.any(array >= n):
            raise WeightedStringError(
                "property ends must satisfy i - 1 <= pi[i] < n for every i"
            )
        if n > 1 and np.any(np.diff(array) < 0):
            raise WeightedStringError("property ends must be non-decreasing")
        array = np.ascontiguousarray(array)
        array.setflags(write=False)
        self._ends = array

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_lengths(cls, lengths: Sequence[int]) -> "PropertyArray":
        """Build from per-position *valid lengths* (``π[i] = i + length - 1``).

        Lengths describe, for each start, how many positions (possibly 0)
        belong to the longest valid interval starting there.  The resulting
        array is made hereditary/monotone by construction checks.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        positions = np.arange(len(lengths), dtype=np.int64)
        return cls(positions + lengths - 1)

    @classmethod
    def full(cls, n: int) -> "PropertyArray":
        """The trivial property covering the whole string (π[i] = n - 1)."""
        return cls(np.full(n, n - 1, dtype=np.int64))

    @classmethod
    def empty(cls, n: int) -> "PropertyArray":
        """The empty property (no position is covered)."""
        return cls(np.arange(n, dtype=np.int64) - 1)

    # -- accessors -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ends)

    @property
    def ends(self) -> np.ndarray:
        """The read-only ``π`` array (inclusive interval ends)."""
        return self._ends

    def end(self, position: int) -> int:
        """``π[position]`` — inclusive end of the longest interval at ``position``."""
        return int(self._ends[position])

    def valid_length(self, position: int) -> int:
        """Length of the longest valid interval starting at ``position``."""
        return int(self._ends[position]) - position + 1

    def valid_lengths(self) -> np.ndarray:
        """Vector of valid lengths for all positions."""
        return self._ends - np.arange(len(self._ends), dtype=np.int64) + 1

    def covers(self, start: int, stop: int) -> bool:
        """Whether the window ``[start, stop)`` lies inside a valid interval."""
        if stop <= start:
            return True
        if not 0 <= start < len(self._ends):
            return False
        return stop - 1 <= int(self._ends[start])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyArray):
            return NotImplemented
        return np.array_equal(self._ends, other._ends)

    def __repr__(self) -> str:
        return f"PropertyArray(length={len(self)}, ends={self._ends.tolist()!r})"

    def total_covered_length(self) -> int:
        """Sum of valid lengths — proportional to WST/WSA index size."""
        return int(self.valid_lengths().sum())


def property_occurrences(
    pattern: Sequence[int], text: Sequence[int], prop: PropertyArray
) -> list[int]:
    """``Occ_π(P, S)``: occurrences of ``pattern`` in ``text`` respecting ``prop``.

    Brute-force reference implementation used as a test oracle and by the
    small-input code paths; the indexes provide the fast equivalents.
    """
    m = len(pattern)
    if m == 0:
        return list(range(len(text) + 1))
    pattern = list(pattern)
    text = list(text)
    positions = []
    for start in range(len(text) - m + 1):
        if text[start : start + m] == pattern and prop.covers(start, start + m):
            positions.append(start)
    return positions


# --------------------------------------------------------------------------- #
# flat-array encoding of the builder's laminar group tree                       #
# --------------------------------------------------------------------------- #
@dataclass
class GroupTreeArrays:
    """The laminar group family of the estimation builder as flat arrays.

    Nodes are numbered in preorder with sibling order preserved (the
    builder's greedy token-pool assignment pops tokens contributed by
    earlier children last, so sibling order is semantically load-bearing);
    ``parent[0] == -1``.  ``seg_start``/``mem_start`` are CSR offsets: node
    ``v`` owns segments ``seg_start[v]:seg_start[v+1]`` (each a
    ``(lo, hi, weight)`` level run, coarsest first, in the node's list
    order) and members ``mem_start[v]:mem_start[v+1]`` (``(level, token)``
    pairs, stored canonically sorted — the builder only ever consumes
    ``sorted(node.members)``).  Two snapshots of bit-identical builder
    states therefore encode to bit-identical arrays, which is what the
    resume path's convergence test compares.
    """

    parent: np.ndarray  # int64[count], preorder, parent[0] == -1
    seg_start: np.ndarray  # int64[count + 1]
    seg_lo: np.ndarray  # int64[segments]
    seg_hi: np.ndarray  # int64[segments]
    seg_weight: np.ndarray  # float64[segments]
    mem_start: np.ndarray  # int64[count + 1]
    mem_level: np.ndarray  # int64[members]
    mem_token: np.ndarray  # int64[members]

    @property
    def node_count(self) -> int:
        return int(len(self.parent))

    def equals(self, other: "GroupTreeArrays") -> bool:
        """Bit-exact equality (segment weights included — no tolerance)."""
        return (
            np.array_equal(self.parent, other.parent)
            and np.array_equal(self.seg_start, other.seg_start)
            and np.array_equal(self.seg_lo, other.seg_lo)
            and np.array_equal(self.seg_hi, other.seg_hi)
            and np.array_equal(self.seg_weight, other.seg_weight)
            and np.array_equal(self.mem_start, other.mem_start)
            and np.array_equal(self.mem_level, other.mem_level)
            and np.array_equal(self.mem_token, other.mem_token)
        )

    def nbytes(self) -> int:
        return int(
            sum(
                array.nbytes
                for array in (
                    self.parent,
                    self.seg_start,
                    self.seg_lo,
                    self.seg_hi,
                    self.seg_weight,
                    self.mem_start,
                    self.mem_level,
                    self.mem_token,
                )
            )
        )


def flatten_group_tree(root, *, root_hi: int | None = None) -> GroupTreeArrays:
    """Encode a builder group tree (``_Node`` objects) into flat arrays.

    ``root`` is duck-typed on ``segments`` / ``members`` / ``children``.
    ``root_hi`` overrides the inclusive upper level of the root's coarsest
    segment: the construction folds whole runs of certain positions into it
    lazily, before the next uncertain position, so snapshots normalise it
    to the snapshot position to stay comparable.
    """
    order = []
    parents: list[int] = []
    stack = [(root, -1)]
    while stack:
        node, parent_index = stack.pop()
        index = len(order)
        order.append(node)
        parents.append(parent_index)
        for child in reversed(node.children):
            stack.append((child, index))
    seg_start = [0]
    mem_start = [0]
    seg_lo: list[int] = []
    seg_hi: list[int] = []
    seg_weight: list[float] = []
    mem_level: list[int] = []
    mem_token: list[int] = []
    for node in order:
        for lo, hi, weight in node.segments:
            seg_lo.append(int(lo))
            seg_hi.append(int(hi))
            seg_weight.append(float(weight))
        seg_start.append(len(seg_lo))
        for level, token in sorted(node.members):
            mem_level.append(int(level))
            mem_token.append(int(token))
        mem_start.append(len(mem_level))
    arrays = GroupTreeArrays(
        parent=np.asarray(parents, dtype=np.int64),
        seg_start=np.asarray(seg_start, dtype=np.int64),
        seg_lo=np.asarray(seg_lo, dtype=np.int64),
        seg_hi=np.asarray(seg_hi, dtype=np.int64),
        seg_weight=np.asarray(seg_weight, dtype=np.float64),
        mem_start=np.asarray(mem_start, dtype=np.int64),
        mem_level=np.asarray(mem_level, dtype=np.int64),
        mem_token=np.asarray(mem_token, dtype=np.int64),
    )
    if root_hi is not None and len(arrays.seg_hi):
        arrays.seg_hi[0] = int(root_hi)
    return arrays


def restore_group_tree(tree: GroupTreeArrays, node_factory):
    """Rebuild the live node tree from its flat encoding.

    ``node_factory(segments, members, children)`` constructs one node
    (matching the estimation builder's ``_Node`` signature).  Children are
    appended in preorder index order, which preserves the original sibling
    order.  Segment/member entries come back as plain Python scalars so
    resumed arithmetic matches the live builder's bit for bit.
    """
    seg_start = tree.seg_start.tolist()
    mem_start = tree.mem_start.tolist()
    seg_lo = tree.seg_lo.tolist()
    seg_hi = tree.seg_hi.tolist()
    seg_weight = tree.seg_weight.tolist()
    mem_level = tree.mem_level.tolist()
    mem_token = tree.mem_token.tolist()
    parents = tree.parent.tolist()
    nodes = []
    for index in range(tree.node_count):
        segments = [
            (seg_lo[s], seg_hi[s], seg_weight[s])
            for s in range(seg_start[index], seg_start[index + 1])
        ]
        members = [
            (mem_level[s], mem_token[s])
            for s in range(mem_start[index], mem_start[index + 1])
        ]
        node = node_factory(segments=segments, members=members, children=[])
        nodes.append(node)
        parent = parents[index]
        if parent >= 0:
            nodes[parent].children.append(node)
    return nodes[0] if nodes else node_factory(segments=[], members=[], children=[])
