"""Compacted tries over sorted key collections.

The tree-shaped indexes of the paper (WST, MWST, MWST-G) are compacted tries
of string collections — suffixes of the z-estimation for WST, minimizer
solid-factor strings for MWST.  To keep those collections *unmaterialised*
(the whole point of the Corollary-4 edge encoding), the trie below never
stores letters: it is built from

* the number of keys, given in lexicographic order (prefixes first),
* the length of each key,
* the longest common prefix of each consecutive pair of keys, and
* a ``letter(key_index, depth)`` accessor used to read edge labels lazily.

Every node records the contiguous range of key indices in its subtree, so a
query that walks the trie ends with the exact set of matching keys.

The topology is built as parent/child CSR arrays (node ranges, edge
key/depth spans, child index sorted by first letter) by one stack pass over
the lengths and LCPs; :class:`TrieNode` objects are only materialised
lazily, as a read-only view, when somebody walks ``root`` / ``iter_nodes``.
The arrays round-trip through :meth:`CompactedTrie.to_arrays` /
:meth:`CompactedTrie.from_arrays`, which is how the store reloads tries
without re-deriving them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..timing import stage_timer

__all__ = ["TrieNode", "CompactedTrie"]

LetterAccessor = Callable[[int, int], int]
BulkLetterAccessor = Callable[[np.ndarray, np.ndarray], np.ndarray]


class TrieNode:
    """One explicit node of a compacted trie.

    The edge entering the node spells the letters of key ``edge_key`` at
    depths ``[parent_depth, depth)``; the subtree below the node contains the
    keys with indices in ``[lo, hi)``; ``terminal`` lists keys that end
    exactly at this node.
    """

    __slots__ = ("depth", "parent_depth", "edge_key", "children", "terminal", "lo", "hi")

    def __init__(self, depth: int, parent_depth: int, edge_key: int) -> None:
        self.depth = depth
        self.parent_depth = parent_depth
        self.edge_key = edge_key
        self.children: dict[int, TrieNode] = {}
        self.terminal: list[int] = []
        self.lo = -1
        self.hi = -1

    @property
    def edge_length(self) -> int:
        """Number of letters on the edge entering this node."""
        return self.depth - self.parent_depth

    def is_leaf(self) -> bool:
        """Whether the node has no children."""
        return not self.children

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TrieNode(depth={self.depth}, range=[{self.lo},{self.hi}), "
            f"children={len(self.children)})"
        )


def _trie_topology(lengths, lcps):
    """Node arrays of the compacted trie over sorted keys, in creation order.

    One stack pass over the key lengths and adjacent LCPs.  Letters are not
    consumed here: the first letter of each edge is resolved afterwards
    (vectorised when a bulk accessor exists).  Returns, per node (node 0 is
    the root): ``depth``; ``parent_depth`` (the edge spells depths
    ``[parent_depth, depth)``); ``edge_key``, a key whose letters spell the
    edge (root: 0, or -1 when there are no keys); ``parent`` (-1 for the
    root); and the half-open key range ``lo`` / ``hi`` of its subtree.  Key
    ``i`` ends exactly at the unique node ``v`` with ``lo[v] <= i < hi[v]``
    and ``depth[v] == lengths[i]``.
    """
    length_list = [int(value) for value in lengths]
    lcp_list = [int(value) for value in lcps]
    count = len(length_list)
    depth = [0]
    parent_depth = [0]
    edge_key = [0 if count else -1]
    parent = [-1]
    lo = [0]
    hi = [0]
    stack = [0]
    for index in range(count):
        length = length_list[index]
        limit = 0 if index == 0 else lcp_list[index]
        if limit > length:
            limit = length
        last = -1
        while depth[stack[-1]] > limit:
            last = stack.pop()
            hi[last] = index
        attach = stack[-1]
        if depth[attach] < limit:
            # Split the edge entering `last` at string depth `limit`.
            middle = len(depth)
            depth.append(limit)
            parent_depth.append(depth[attach])
            edge_key.append(edge_key[last])
            parent.append(attach)
            lo.append(lo[last])
            hi.append(0)
            parent[last] = middle
            parent_depth[last] = limit
            stack.append(middle)
            attach = middle
        if length > depth[attach]:
            leaf = len(depth)
            depth.append(length)
            parent_depth.append(depth[attach])
            edge_key.append(index)
            parent.append(attach)
            lo.append(index)
            hi.append(0)
            stack.append(leaf)
    for node in stack:
        hi[node] = count
    return (
        np.asarray(depth, dtype=np.int64),
        np.asarray(parent_depth, dtype=np.int64),
        np.asarray(edge_key, dtype=np.int64),
        np.asarray(parent, dtype=np.int64),
        np.asarray(lo, dtype=np.int64),
        np.asarray(hi, dtype=np.int64),
    )


_CSR_ARRAY_NAMES = (
    "depth",
    "parent_depth",
    "edge_key",
    "parent",
    "lo",
    "hi",
    "child_start",
    "child_id",
    "child_letter",
)


class CompactedTrie:
    """A compacted trie over ``count`` sorted keys accessed through a callback.

    Parameters
    ----------
    lengths:
        Length of each key, in sorted key order.
    lcps:
        ``lcps[i]`` = longest common prefix of keys ``i-1`` and ``i``
        (``lcps[0]`` is ignored / treated as 0).
    letter:
        ``letter(key_index, depth)`` returns the code of the letter of a key
        at a given depth; only called for valid depths.
    bulk_letter:
        optional vectorised twin, ``bulk_letter(keys, depths) -> codes`` over
        parallel int64 arrays; used to resolve all first-edge letters in one
        call during CSR construction.

    The keys must be sorted so that a key that is a prefix of another comes
    first, and so that keys sharing a prefix are contiguous — i.e. ordinary
    lexicographic order.
    """

    #: Class-level counter of from-keys constructions (``from_arrays`` does
    #: not count) — the no-rederivation test hook for store reloads.
    construction_count = 0

    def __init__(
        self,
        lengths: Sequence[int],
        lcps: Sequence[int],
        letter: LetterAccessor,
        *,
        bulk_letter: BulkLetterAccessor | None = None,
    ) -> None:
        self._letter = letter
        self._bulk_letter = bulk_letter
        self._lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        self._view_root: TrieNode | None = None
        CompactedTrie.construction_count += 1
        with stage_timer("trie"):
            self._build_csr(np.ascontiguousarray(lcps, dtype=np.int64))

    # -- CSR construction --------------------------------------------------------
    def _build_csr(self, lcps: np.ndarray) -> None:
        (
            self._depth,
            self._parent_depth,
            self._edge_key,
            self._parent,
            self._lo,
            self._hi,
        ) = _trie_topology(self._lengths, lcps)
        self._node_count = len(self._depth)
        count = self._node_count
        child_start = np.zeros(count + 1, dtype=np.int64)
        if count > 1:
            # Node ids are already in ascending first-letter order within each
            # parent (keys arrive sorted), so a stable sort by parent yields
            # the child CSR directly.
            children = np.argsort(self._parent[1:], kind="stable") + 1
            child_start[1:] = np.cumsum(np.bincount(self._parent[1:], minlength=count))
            keys = self._edge_key[children]
            depths = self._parent_depth[children]
            if self._bulk_letter is not None:
                letters = np.ascontiguousarray(self._bulk_letter(keys, depths), dtype=np.int64)
            else:
                letter = self._letter
                letters = np.fromiter(
                    (letter(int(key), int(depth)) for key, depth in zip(keys, depths)),
                    dtype=np.int64,
                    count=len(children),
                )
            self._child_id = children
            self._child_letter = letters
        else:
            self._child_id = np.empty(0, dtype=np.int64)
            self._child_letter = np.empty(0, dtype=np.int64)
        self._child_start = child_start

    # -- array round-trip --------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The CSR node/child arrays (for persistence)."""
        return {
            "depth": self._depth,
            "parent_depth": self._parent_depth,
            "edge_key": self._edge_key,
            "parent": self._parent,
            "lo": self._lo,
            "hi": self._hi,
            "child_start": self._child_start,
            "child_id": self._child_id,
            "child_letter": self._child_letter,
        }

    @classmethod
    def from_arrays(
        cls,
        arrays: dict[str, np.ndarray],
        lengths: Sequence[int],
        letter: LetterAccessor,
        *,
        bulk_letter: BulkLetterAccessor | None = None,
    ) -> CompactedTrie:
        """Rehydrate a CSR trie from :meth:`to_arrays` output (no rebuild)."""
        trie = cls.__new__(cls)
        trie._letter = letter
        trie._bulk_letter = bulk_letter
        trie._lengths = np.asarray(lengths, dtype=np.int64)
        trie._view_root = None
        for name in _CSR_ARRAY_NAMES:
            setattr(trie, f"_{name}", np.asarray(arrays[name], dtype=np.int64))
        trie._node_count = len(trie._depth)
        return trie

    # -- lazy object view --------------------------------------------------------
    @property
    def root(self) -> TrieNode:
        """The root :class:`TrieNode` of a read-only view, materialised lazily."""
        if self._view_root is None:
            self._view_root = self._materialize_view()
        return self._view_root

    def _materialize_view(self) -> TrieNode:
        count = self._node_count
        depth = self._depth
        parent_depth = self._parent_depth
        edge_key = self._edge_key
        lo = self._lo
        hi = self._hi
        child_start = self._child_start
        child_id = self._child_id
        child_letter = self._child_letter
        lengths = self._lengths
        nodes = [
            TrieNode(int(depth[v]), int(parent_depth[v]), int(edge_key[v]))
            for v in range(count)
        ]
        for v in range(count):
            node = nodes[v]
            node.lo = int(lo[v])
            node.hi = int(hi[v])
            for slot in range(int(child_start[v]), int(child_start[v + 1])):
                node.children[int(child_letter[slot])] = nodes[int(child_id[slot])]
            if node.hi > node.lo:
                # Keys ending exactly here: in-range keys whose length equals
                # the node depth (ranges nest, depths along a path increase,
                # so the node is unique).
                block = np.nonzero(lengths[node.lo : node.hi] == node.depth)[0]
                for key in block:
                    node.terminal.append(int(key) + node.lo)
        return nodes[0]

    # -- shape ---------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        """Number of keys the trie was built from."""
        return len(self._lengths)

    @property
    def node_count(self) -> int:
        """Number of explicit nodes (the paper's index-size driver)."""
        return self._node_count

    def key_length(self, key_index: int) -> int:
        """Length of one key."""
        return int(self._lengths[key_index])

    def iter_nodes(self):
        """Yield every node (pre-order)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    # -- queries ----------------------------------------------------------------------
    def descend(self, pattern: Sequence[int]) -> tuple[int, int]:
        """Range of keys having ``pattern`` as a prefix.

        Returns the half-open ``(lo, hi)`` range of key indices; ``(0, 0)``
        when no key starts with the pattern.  The walk costs O(|pattern|)
        letter accesses plus O(log sigma) per node.
        """
        letter = self._letter
        child_start = self._child_start
        child_letter = self._child_letter
        child_id = self._child_id
        node_depth = self._depth
        node_edge_key = self._edge_key
        node = 0
        depth = 0
        m = len(pattern)
        while depth < m:
            start = int(child_start[node])
            stop = int(child_start[node + 1])
            target = int(pattern[depth])
            slot = start + int(np.searchsorted(child_letter[start:stop], target))
            if slot == stop or int(child_letter[slot]) != target:
                return 0, 0
            child = int(child_id[slot])
            # Match the remaining letters on the edge.
            edge_end = int(node_depth[child])
            key = int(node_edge_key[child])
            offset = depth + 1
            while offset < min(m, edge_end):
                if letter(key, offset) != int(pattern[offset]):
                    return 0, 0
                offset += 1
            node = child
            depth = edge_end
        return int(self._lo[node]), int(self._hi[node])

    def matching_keys(self, pattern: Sequence[int]) -> list[int]:
        """Indices of the keys that have ``pattern`` as a prefix."""
        lo, hi = self.descend(pattern)
        return list(range(lo, hi))
