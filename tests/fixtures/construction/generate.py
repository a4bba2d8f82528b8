"""Generate the golden construction fixtures of ``tests/test_construction_golden.py``.

Each ``<case>.npz`` beside this script is one seeded weighted string (its
probability matrix is stored, so nothing depends on ``repro.datasets``) with
the threshold ``z``, the window length ℓ and the leaf-sort limits it was
built under, plus what every structure built from it looks like, bit for
bit:

* the sorted forward/backward leaf arrays of the explicit construction
  (``fwd_*`` / ``bwd_*``: anchors, lengths, positions, sources, mismatch
  CSR), their ``raw_to_sorted`` permutations and adjacent LCPs;
* the grid ``pairs`` of the *-G variants;
* the CSR trie arrays of MWST (``mwst_fwd_trie_*`` / ``mwst_bwd_trie_*``),
  WST (``wst_trie_*``) and MWST-SE (``se_fwd_trie_*`` / ``se_bwd_trie_*``);
* the suffix array and LCP array of the WSA property suffix structure.

Before writing a case the generator checks the leaf order against a Python
sort of ``(letters, position, source)``, every adjacent LCP against the
naive common prefix, and the suffix array against a Python sort of the
suffixes.  Run from the repository root to regenerate (the files are only
ever regenerated on purpose — the test pins the constructions to them)::

    PYTHONPATH=src python tests/fixtures/construction/generate.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.alphabet import Alphabet
from repro.core.estimation import build_z_estimation
from repro.core.weighted_string import WeightedString
from repro.indexes import build_index
from repro.indexes.minimizer_core import LeafCollection, build_index_data_from_estimation
from repro.strings.lcp import lcp_array
from repro.strings.trie import _CSR_ARRAY_NAMES

HERE = Path(__file__).resolve().parent

#: Per-leaf arrays of a sorted collection, in ``LeafArrays`` slot order.
LEAF_FIELDS = (
    "anchors",
    "lengths",
    "positions",
    "sources",
    "mm_start",
    "mm_offset",
    "mm_code",
)


# --------------------------------------------------------------------------- #
# inputs                                                                       #
# --------------------------------------------------------------------------- #
def sparse_rows(rng, n: int, sigma: int, uncertain: float):
    """Certain rows, and with probability ``uncertain`` two or three letters."""
    matrix = np.zeros((n, sigma))
    for position in range(n):
        if rng.random() < uncertain:
            count = int(rng.integers(2, 4))
            codes = rng.choice(sigma, size=count, replace=False)
            matrix[position, codes] = rng.random(count) + 0.05
        else:
            matrix[position, int(rng.integers(sigma))] = 1.0
    return matrix / matrix.sum(axis=1)[:, None]


def degenerate_rows(rng, n: int, sigma: int):
    """Mostly certain rows with a few maximally uncertain ones."""
    matrix = np.zeros((n, sigma))
    matrix[np.arange(n), rng.integers(0, sigma, n)] = 1.0
    fuzzy = rng.random(n) < 0.15
    matrix[fuzzy] = 1.0 / sigma
    return matrix


#: (case, matrix factory, z, ℓ, (PRESORT_PREFIX, SORT_WIDEN_LIMIT) or None)
CASES = [
    ("s4-z1", lambda: sparse_rows(np.random.default_rng(4101), 120, 4, 0.1), 1.0, 4, None),
    ("s4-z8", lambda: sparse_rows(np.random.default_rng(4801), 100, 4, 0.35), 8.0, 4, None),
    ("s300-z1", lambda: sparse_rows(np.random.default_rng(30101), 80, 300, 0.1), 1.0, 2, None),
    ("s300-z8", lambda: sparse_rows(np.random.default_rng(30801), 60, 300, 0.35), 8.0, 2, None),
    # Tiny sort limits: the widening rounds and the exact-comparator
    # fallback of the leaf sort and of the adjacent LCPs both run.
    (
        "narrow-limits",
        lambda: degenerate_rows(np.random.default_rng(31), 90, 3),
        4.0,
        3,
        (2, 4),
    ),
]


def alphabet_of(sigma: int) -> Alphabet:
    """The fixtures' alphabet: letters ``c0 .. c{σ-1}`` in code order."""
    return Alphabet([f"c{code}" for code in range(sigma)])


# --------------------------------------------------------------------------- #
# oracles                                                                      #
# --------------------------------------------------------------------------- #
def common_prefix(first, second) -> int:
    limit = min(len(first), len(second))
    for offset in range(limit):
        if first[offset] != second[offset]:
            return offset
    return limit


def check_collection(collection: LeafCollection) -> None:
    """Leaf order and adjacent LCPs against plain Python sorts and scans."""
    keys = [
        (tuple(collection.leaf_codes(index)), int(position), int(source))
        for index, (position, source) in enumerate(
            zip(collection.positions, collection.sources)
        )
    ]
    assert keys == sorted(keys)
    lcps = collection.adjacent_lcps()
    for index in range(1, len(keys)):
        assert lcps[index] == common_prefix(keys[index - 1][0], keys[index][0])


def check_suffix_array(text: np.ndarray, sa: np.ndarray) -> None:
    codes = text.tolist()
    expected = sorted(range(len(codes)), key=lambda start: codes[start:])
    assert sa.tolist() == expected


# --------------------------------------------------------------------------- #
# encoding                                                                     #
# --------------------------------------------------------------------------- #
def trie_arrays(prefix: str, trie) -> dict:
    arrays = trie.to_arrays()
    return {f"{prefix}{name}": arrays[name] for name in _CSR_ARRAY_NAMES}


def generate_case(matrix: np.ndarray, z: float, ell: int) -> dict:
    source = WeightedString(matrix, alphabet_of(matrix.shape[1]))
    estimation = build_z_estimation(source, z)
    data = build_index_data_from_estimation(source, z, ell, estimation=estimation)
    built = {
        "WST": build_index(source, z, kind="WST", estimation=estimation),
        "WSA": build_index(source, z, kind="WSA", estimation=estimation),
        "MWST": build_index(source, z, kind="MWST", ell=ell, data=data),
        "MWST-SE": build_index(source, z, kind="MWST-SE", ell=ell),
    }
    arrays = {}
    for side, collection in (("fwd", data.forward), ("bwd", data.backward)):
        check_collection(collection)
        for name in LEAF_FIELDS:
            arrays[f"{side}_{name}"] = getattr(collection.arrays, name)
        arrays[f"{side}_raw_to_sorted"] = collection.raw_to_sorted
        arrays[f"{side}_lcps"] = collection.adjacent_lcps()
    arrays["pairs"] = np.asarray(data.pairs, dtype=np.int64).reshape(-1, 2)
    for kind, prefix in (("MWST", "mwst"), ("MWST-SE", "se")):
        kind_data = built[kind].data
        arrays.update(trie_arrays(f"{prefix}_fwd_trie_", kind_data.forward.build_trie()))
        arrays.update(trie_arrays(f"{prefix}_bwd_trie_", kind_data.backward.build_trie()))
    arrays.update(trie_arrays("wst_trie_", built["WST"]._trie))
    structure = built["WSA"].structure
    check_suffix_array(structure.text, structure.sa)
    arrays["wsa_sa"] = structure.sa
    arrays["wsa_lcp"] = lcp_array(structure.text, structure.sa)
    return arrays


def main() -> None:
    defaults = (LeafCollection.PRESORT_PREFIX, LeafCollection.SORT_WIDEN_LIMIT)
    try:
        for name, make_matrix, z, ell, limits in CASES:
            presort, widen = defaults if limits is None else limits
            LeafCollection.PRESORT_PREFIX = presort
            LeafCollection.SORT_WIDEN_LIMIT = widen
            matrix = np.ascontiguousarray(make_matrix(), dtype=np.float64)
            arrays = generate_case(matrix, z, ell)
            arrays.update(
                matrix=matrix,
                z=np.asarray(z, dtype=np.float64),
                ell=np.asarray(ell, dtype=np.int64),
                limits=np.asarray([presort, widen], dtype=np.int64),
            )
            path = HERE / f"{name}.npz"
            np.savez_compressed(path, **arrays)
            print(f"{path.name}: {path.stat().st_size} bytes")
    finally:
        LeafCollection.PRESORT_PREFIX, LeafCollection.SORT_WIDEN_LIMIT = defaults


if __name__ == "__main__":
    main()
