"""CSR compacted tries against a dict trie built from the tuple keys.

The oracle inserts every sorted key letter by letter into nested dicts and
keeps, as explicit nodes, the root, every branching node and every node a
key ends at.  The CSR trie must have exactly those nodes — same depths, key
ranges, terminal keys, child letters in order, and edges spelling the same
letters — answer ``descend`` / ``matching_keys`` like a prefix filter over
the keys, and survive a round trip through its arrays.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.strings.trie import CompactedTrie, TrieNode


def random_keys(rng: random.Random, count: int, sigma: int, max_len: int):
    """Sorted, deduplicated random keys plus their adjacent LCP array."""
    keys = sorted(
        {
            tuple(rng.randrange(sigma) for _ in range(rng.randint(1, max_len)))
            for _ in range(count)
        }
    )
    lcps = [0] * len(keys)
    for index in range(1, len(keys)):
        previous, current = keys[index - 1], keys[index]
        common = 0
        while (
            common < len(previous)
            and common < len(current)
            and previous[common] == current[common]
        ):
            common += 1
        lcps[index] = common
    return keys, lcps


def build_trie(keys, lcps) -> CompactedTrie:
    lengths = np.array([len(key) for key in keys], dtype=np.int64)

    def letter(index: int, offset: int) -> int:
        return keys[index][offset]

    def bulk_letter(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        return np.array(
            [keys[int(row)][int(offset)] for row, offset in zip(rows, offsets)],
            dtype=np.int64,
        )

    return CompactedTrie(
        lengths, np.array(lcps, dtype=np.int64), letter, bulk_letter=bulk_letter
    )


def dict_trie(keys) -> dict:
    """The compacted trie of the keys, from nested dicts (the oracle).

    Each explicit node is ``{"depth", "label", "keys", "lo", "hi",
    "children"}``: ``label`` is the tuple of letters on its incoming edge,
    ``keys`` the keys ending exactly there, ``children`` keyed by first
    letter in ascending order.
    """
    root: dict = {"children": {}, "keys": []}
    for index, key in enumerate(keys):
        node = root
        for letter in key:
            node = node["children"].setdefault(letter, {"children": {}, "keys": []})
        node["keys"].append(index)

    def compact(node: dict, depth: int, label: tuple) -> dict:
        # Follow unary, non-terminal chains down to the next explicit node.
        while len(node["children"]) == 1 and not node["keys"] and depth > 0:
            (letter, node), = node["children"].items()
            depth += 1
            label += (letter,)
        children = {}
        for letter in sorted(node["children"]):
            children[letter] = compact(node["children"][letter], depth + 1, (letter,))
        covered = list(node["keys"]) + [
            key for child in children.values() for key in range(child["lo"], child["hi"])
        ]
        return {
            "depth": depth,
            "label": label,
            "keys": list(node["keys"]),
            "lo": min(covered, default=0),
            "hi": max(covered, default=-1) + 1,
            "children": children,
        }

    return compact(root, 0, ())


def assert_matches_oracle(node: TrieNode, oracle: dict, keys, parent_depth: int = 0):
    assert node.depth == oracle["depth"]
    assert node.parent_depth == parent_depth
    assert node.edge_length == len(oracle["label"])
    assert (node.lo, node.hi) == (oracle["lo"], oracle["hi"])
    assert node.terminal == oracle["keys"]
    assert node.is_leaf() == (not oracle["children"])
    if oracle["label"]:
        assert keys[node.edge_key][parent_depth : node.depth] == oracle["label"]
    assert list(node.children) == list(oracle["children"])  # same letters, same order
    for letter, child in node.children.items():
        assert_matches_oracle(child, oracle["children"][letter], keys, node.depth)


def count_nodes(oracle: dict) -> int:
    return 1 + sum(count_nodes(child) for child in oracle["children"].values())


def assert_same_tree(a: TrieNode, b: TrieNode) -> None:
    assert (a.depth, a.parent_depth, a.edge_key) == (b.depth, b.parent_depth, b.edge_key)
    assert (a.lo, a.hi, a.terminal) == (b.lo, b.hi, b.terminal)
    assert list(a.children) == list(b.children)
    for letter in a.children:
        assert_same_tree(a.children[letter], b.children[letter])


def prefix_range(keys, pattern) -> tuple[int, int]:
    """The keys starting with ``pattern``, by a plain filter (``(0, 0)`` if none)."""
    matches = [index for index, key in enumerate(keys) if key[: len(pattern)] == tuple(pattern)]
    return (matches[0], matches[-1] + 1) if matches else (0, 0)


class TestStructuralParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_key_sets(self, seed):
        rng = random.Random(seed)
        keys, lcps = random_keys(rng, rng.randint(1, 60), rng.choice([2, 4, 26]), 12)
        trie = build_trie(keys, lcps)
        oracle = dict_trie(keys)
        assert trie.node_count == count_nodes(oracle)
        assert trie.key_count == len(keys)
        assert_matches_oracle(trie.root, oracle, keys)

    def test_empty_and_single(self):
        trie = build_trie([], [])
        assert trie.node_count == 1
        assert trie.descend([0]) == (0, 0)
        keys = [(0, 1, 0)]
        trie = build_trie(keys, [0])
        assert trie.node_count == count_nodes(dict_trie(keys)) == 2
        assert_matches_oracle(trie.root, dict_trie(keys), keys)

    def test_iter_nodes_preorder_matches(self):
        rng = random.Random(99)
        keys, lcps = random_keys(rng, 40, 3, 10)
        trie = build_trie(keys, lcps)
        expected, stack = [], [dict_trie(keys)]
        while stack:  # pre-order, last child first, as iter_nodes walks
            node = stack.pop()
            expected.append((node["depth"], node["lo"], node["hi"]))
            stack.extend(node["children"].values())
        assert [(n.depth, n.lo, n.hi) for n in trie.iter_nodes()] == expected


class TestQueryParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_descend_and_matching_keys(self, seed):
        rng = random.Random(1000 + seed)
        sigma = rng.choice([2, 4])
        keys, lcps = random_keys(rng, rng.randint(1, 50), sigma, 10)
        trie = build_trie(keys, lcps)
        patterns = [[]]
        for key in keys[:: max(1, len(keys) // 10)]:
            for cut in (1, len(key) // 2, len(key)):
                patterns.append(list(key[:cut]))
        patterns += [
            [rng.randrange(sigma) for _ in range(rng.randint(1, 12))] for _ in range(30)
        ]
        for pattern in patterns:
            expected = prefix_range(keys, pattern)
            assert trie.descend(pattern) == expected, pattern
            assert trie.matching_keys(pattern) == list(range(*expected))

    def test_descend_after_view_materialisation(self):
        # Materialising the read-only .root view leaves descend unchanged.
        rng = random.Random(5)
        keys, lcps = random_keys(rng, 30, 2, 8)
        trie_a = build_trie(keys, lcps)
        trie_b = build_trie(keys, lcps)
        trie_b.root  # materialise the view on one copy only
        for key in keys:
            for cut in (1, len(key)):
                assert trie_a.descend(key[:cut]) == trie_b.descend(key[:cut])


class TestArrayRoundTrip:
    def test_to_from_arrays(self):
        rng = random.Random(7)
        keys, lcps = random_keys(rng, 45, 4, 9)
        trie = build_trie(keys, lcps)
        arrays = trie.to_arrays()
        lengths = np.array([len(key) for key in keys], dtype=np.int64)
        clone = CompactedTrie.from_arrays(
            arrays, lengths, lambda index, offset: keys[index][offset]
        )
        assert clone.node_count == trie.node_count
        assert_same_tree(clone.root, trie.root)


class TestTrieVariants:
    """Every trie-using variant answers like the oracle, built and reloaded."""

    @staticmethod
    def source_and_patterns(seed: int, n: int, certain: float):
        from repro.core.alphabet import Alphabet
        from repro.core.weighted_string import WeightedString

        rng = np.random.default_rng(seed)
        base = rng.integers(0, 4, size=n)
        matrix = np.full((n, 4), (1.0 - certain) / 3)
        matrix[np.arange(n), base] = certain
        source = WeightedString(matrix, Alphabet("ACGT"))
        patterns = [[int(c) for c in base[start : start + 8]] for start in range(0, n - 20, 11)]
        patterns += [[int(c) for c in rng.integers(0, 4, size=8)] for _ in range(20)]
        return source, patterns

    @pytest.mark.parametrize("kind", ["WST", "MWST", "MWST-G", "MWST-SE"])
    def test_matches_oracle(self, kind):
        from repro.indexes import brute_force_occurrences
        from repro.indexes.registry import build_index

        source, patterns = self.source_and_patterns(21, 300, 0.91)
        index = build_index(source, 4.0, kind=kind, ell=None if kind == "WST" else 6)
        for pattern in patterns:
            assert index.locate(pattern) == brute_force_occurrences(source, pattern, 4.0)

    def test_store_round_trip(self, tmp_path):
        from repro.indexes import brute_force_occurrences
        from repro.indexes.registry import build_index
        from repro.io.store import load_index, save_index

        source, patterns = self.source_and_patterns(3, 250, 0.94)
        for kind, ell in (("MWST", 6), ("WST", None)):
            fresh = build_index(source, 4.0, kind=kind, ell=ell)
            path = tmp_path / f"{kind}.idx"
            save_index(path, fresh)
            loaded = load_index(path)
            for pattern in patterns:
                expected = brute_force_occurrences(source, pattern, 4.0)
                assert fresh.locate(pattern) == expected
                assert loaded.locate(pattern) == expected
