"""Store reload must re-derive nothing: tries and grids load as arrays.

The class-level construction counters (``CompactedTrie.construction_count``,
``RangeTree2D.build_count``) count *from-scratch* builds only — array
rehydration (``from_arrays``) deliberately does not increment them, so a
reload that silently fell back to re-derivation fails these tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.alphabet import Alphabet
from repro.core.weighted_string import WeightedString
from repro.geometry.grid import Grid2D, RangeTree2D
from repro.indexes.registry import available_kinds, build_index
from repro.io.store import load_index, save_index
from repro.strings.trie import CompactedTrie


@pytest.fixture(scope="module")
def source():
    rng = np.random.default_rng(17)
    base = rng.integers(0, 4, size=400)
    matrix = np.full((400, 4), 0.02)
    matrix[np.arange(400), base] = 0.94
    return WeightedString(matrix, Alphabet("ACGT")), base


@pytest.mark.parametrize("kind", sorted(available_kinds()))
def test_reload_rederives_nothing(kind, source, tmp_path):
    weighted, base = source
    ell = None if kind in ("WST", "WSA") else 8
    index = build_index(weighted, 4.0, kind=kind, ell=ell)
    path = tmp_path / f"{kind}.idx"
    save_index(path, index)
    trie_before = CompactedTrie.construction_count
    grid_before = RangeTree2D.build_count
    loaded = load_index(path)
    # Loading may not construct a single trie or range tree from scratch.
    assert CompactedTrie.construction_count == trie_before
    assert RangeTree2D.build_count == grid_before
    rng = np.random.default_rng(23)
    patterns = [[int(c) for c in base[start : start + 10]] for start in range(0, 350, 29)]
    patterns += [[int(c) for c in rng.integers(0, 4, size=10)] for _ in range(10)]
    for pattern in patterns:
        assert loaded.locate(pattern) == index.locate(pattern)


def test_reload_with_forced_range_tree_grid(source, tmp_path):
    weighted, base = source
    index = build_index(weighted, 4.0, kind="MWST-G", ell=8)
    # More pairs than the linear-scan limit force the range-tree backend.
    assert len(index.grid) > Grid2D.BRUTE_FORCE_LIMIT
    assert index.grid.backend_name == "range_tree"
    path = tmp_path / "grid.idx"
    save_index(path, index)
    grid_before = RangeTree2D.build_count
    loaded = load_index(path)
    assert RangeTree2D.build_count == grid_before
    assert loaded.grid.backend_name == "range_tree"
    for start in range(0, 350, 41):
        pattern = [int(c) for c in base[start : start + 10]]
        assert loaded.locate(pattern) == index.locate(pattern)


def test_counters_do_count_fresh_builds(source):
    weighted, _ = source
    trie_before = CompactedTrie.construction_count
    build_index(weighted, 4.0, kind="MWST", ell=8)
    assert CompactedTrie.construction_count > trie_before
