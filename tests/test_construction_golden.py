"""Golden fixtures pin every construction bit for bit.

``tests/fixtures/construction/*.npz`` were written by ``generate.py`` beside
them from seeded inputs stored in each file (σ ∈ {3, 4, 300}, z ∈ {1, 4, 8}).
A fresh build of each case must reproduce the stored sorted leaf arrays,
``raw_to_sorted`` permutations, adjacent LCPs and grid pairing of the
explicit minimizer construction, the CSR trie arrays of MWST, WST and
MWST-SE, and the WSA suffix and LCP arrays.  The ``narrow-limits`` case is
built with tiny leaf-sort limits, so the exact-comparator fallback of the
leaf sort and of the adjacent LCPs runs (the test checks that it does).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.alphabet import Alphabet
from repro.core.weighted_string import WeightedString
from repro.indexes import ConstructionPipeline
from repro.indexes.minimizer_core import LeafCollection
from repro.strings.lcp import lcp_array
from repro.strings.trie import _CSR_ARRAY_NAMES

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "construction"
CASES = sorted(path.stem for path in FIXTURES.glob("*.npz"))
LEAF_FIELDS = (
    "anchors",
    "lengths",
    "positions",
    "sources",
    "mm_start",
    "mm_offset",
    "mm_code",
)


def load_case(name: str) -> dict:
    with np.load(FIXTURES / f"{name}.npz") as stored:
        return {key: stored[key] for key in stored.files}


def assert_trie_matches(case: dict, prefix: str, trie) -> None:
    arrays = trie.to_arrays()
    for name in _CSR_ARRAY_NAMES:
        np.testing.assert_array_equal(arrays[name], case[f"{prefix}{name}"], err_msg=name)


def case_pipeline(case: dict, monkeypatch) -> ConstructionPipeline:
    """A construction pipeline over the case's input, under its sort limits."""
    presort, widen = (int(value) for value in case["limits"])
    monkeypatch.setattr(LeafCollection, "PRESORT_PREFIX", presort)
    monkeypatch.setattr(LeafCollection, "SORT_WIDEN_LIMIT", widen)
    matrix = case["matrix"]
    alphabet = Alphabet([f"c{code}" for code in range(matrix.shape[1])])
    source = WeightedString(matrix, alphabet)
    return ConstructionPipeline(source, float(case["z"]), ell=int(case["ell"]))


def test_fixture_registry():
    assert {"s4-z1", "s4-z8", "s300-z1", "s300-z8", "narrow-limits"} <= set(CASES)
    cases = [load_case(name) for name in CASES]
    assert {case["matrix"].shape[1] for case in cases} >= {4, 300}
    assert {float(case["z"]) for case in cases} >= {1.0, 8.0}
    assert any(len(case["fwd_mm_code"]) for case in cases)
    # σ = 300 reaches codes a byte key cannot hold.
    assert max(int(case["fwd_mm_code"].max(initial=0)) for case in cases) >= 255


@pytest.mark.parametrize("name", CASES)
def test_construction_matches_golden(name, monkeypatch):
    case = load_case(name)
    pipeline = case_pipeline(case, monkeypatch)
    built = {kind: pipeline.build(kind) for kind in ("WST", "WSA", "MWST", "MWST-SE")}
    data = pipeline.index_data()
    for side, collection in (("fwd", data.forward), ("bwd", data.backward)):
        for field in LEAF_FIELDS:
            np.testing.assert_array_equal(
                getattr(collection.arrays, field), case[f"{side}_{field}"], err_msg=field
            )
        np.testing.assert_array_equal(collection.raw_to_sorted, case[f"{side}_raw_to_sorted"])
        np.testing.assert_array_equal(collection.adjacent_lcps(), case[f"{side}_lcps"])
    assert data.pairs == [tuple(pair) for pair in case["pairs"].tolist()]
    for kind, prefix in (("MWST", "mwst"), ("MWST-SE", "se")):
        kind_data = built[kind].data
        assert_trie_matches(case, f"{prefix}_fwd_trie_", kind_data.forward.build_trie())
        assert_trie_matches(case, f"{prefix}_bwd_trie_", kind_data.backward.build_trie())
    assert_trie_matches(case, "wst_trie_", built["WST"]._trie)
    structure = built["WSA"].structure
    np.testing.assert_array_equal(structure.sa, case["wsa_sa"])
    np.testing.assert_array_equal(lcp_array(structure.text, structure.sa), case["wsa_lcp"])


def test_narrow_limits_reach_the_comparator_fallback(monkeypatch):
    calls = {"compare": 0, "leaf_lcp": 0}
    compare, leaf_lcp = LeafCollection._compare, LeafCollection._leaf_lcp

    def counted_compare(self, first, second):
        calls["compare"] += 1
        return compare(self, first, second)

    def counted_leaf_lcp(self, first, second):
        calls["leaf_lcp"] += 1
        return leaf_lcp(self, first, second)

    monkeypatch.setattr(LeafCollection, "_compare", counted_compare)
    monkeypatch.setattr(LeafCollection, "_leaf_lcp", counted_leaf_lcp)
    data = case_pipeline(load_case("narrow-limits"), monkeypatch).index_data()
    assert calls["compare"] > 0  # the sort finished tied runs with the comparator
    before = calls["leaf_lcp"]
    data.forward.adjacent_lcps()
    data.backward.adjacent_lcps()
    assert calls["leaf_lcp"] > before  # and so did the adjacent LCPs
