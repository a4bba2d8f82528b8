"""Construction sweep: every structure against plain oracles.

Each structure has one construction path; these tests pin it to oracles
that share no code with it (``tests/test_construction_golden.py`` pins the
same paths bit for bit to stored fixtures):

* the z-estimation matches the golden fixtures of
  ``tests/fixtures/estimation`` on the edge sources (z = 1, single-letter
  alphabets, fully-certain strings, tied-probability rows, rows at the
  rounding boundary of the quota floor);
* the sorted leaves of the explicit construction equal a Python sort of
  ``(letters, position, source)`` — also with tiny sort limits and with an
  alphabet too wide for byte keys — their adjacent LCPs equal the naive
  common prefix, and the grid pairing links the two leaves of each label;
* all 7 variants, the sharded build and a store round trip answer every
  query mode exactly like the brute-force ``Occ_{1/z}`` oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_differential_fuzz import (
    assert_index_matches_oracle,
    leaf_tuples,
    random_patterns,
    random_weighted_string,
)
from test_estimation_golden import CASES, assert_matches_golden, load_case

from repro.core.alphabet import Alphabet
from repro.core.estimation import build_z_estimation
from repro.core.weighted_string import WeightedString
from repro.indexes import build_index
from repro.indexes.minimizer_core import LeafCollection, build_index_data_from_estimation
from repro.io.store import load_index, save_index

ALL_MONOLITHIC = ("WST", "WSA", "MWST", "MWSA", "MWST-G", "MWSA-G", "MWST-SE")

#: (name, style, n, sigma, z, ell, seed) — a bounded, deterministic sweep.
SWEEP = [
    ("skewed", "skewed", 72, 4, 4.0, 3, 1301),
    ("uniform", "uniform", 60, 3, 2.0, 3, 1402),
    ("degenerate", "degenerate", 84, 4, 5.5, 4, 1503),
    ("deep-z", "skewed", 64, 4, 8.0, 4, 1604),
]


# --------------------------------------------------------------------------- #
# estimation edge cases, pinned to the golden fixtures                         #
# --------------------------------------------------------------------------- #
class TestEstimationEdgeCases:
    def test_z_equal_one(self, monkeypatch):
        case = assert_matches_golden("uniform-s3", monkeypatch)
        source = case.source
        assert 1.0 in [run.z for run in case.runs]
        estimation = build_z_estimation(source, 1.0)
        assert estimation.width == 1
        # The single string of a 1-estimation is the heavy string.
        assert np.array_equal(estimation.strings[0], source.heavy_codes())

    def test_single_letter_alphabet(self, monkeypatch):
        source = assert_matches_golden("single-letter", monkeypatch).source
        assert source.sigma == 1
        estimation = build_z_estimation(source, 3.0)
        assert np.all(estimation.strings == 0)
        assert np.all(estimation.ends == len(source) - 1)

    def test_fully_certain_string(self, monkeypatch):
        source = assert_matches_golden("fully-certain", monkeypatch).source
        assert np.array_equal(
            source.matrix, WeightedString.from_string("ABBABAABBA").matrix
        )
        estimation = build_z_estimation(source, 6.0)
        # Every token spells the input with a full-span property.
        for j in range(estimation.width):
            assert np.array_equal(estimation.strings[j], source.heavy_codes())
            assert np.all(estimation.ends[j] == len(source) - 1)

    def test_tied_probability_rows(self, monkeypatch):
        case = assert_matches_golden("tied-rows", monkeypatch)
        rows = [{"A": 0.5, "B": 0.5}] * 6 + [{"A": 1.0}] + [
            {"A": 0.25, "B": 0.25, "C": 0.25, "D": 0.25}
        ] * 4
        expected = WeightedString.from_dicts(rows, Alphabet("ABCD"))
        assert np.array_equal(case.matrix, expected.matrix)
        assert [run.z for run in case.runs] == [2.0, 4.0, 8.0]

    def test_weight_floor_boundary_rows(self, monkeypatch):
        # z·P lands exactly on integers (0.5/0.25 quotas at z = 4, 1/3 rows
        # at z = 3) and, for rows of short decimals, one ulp below them:
        # the rounding-tolerance floor of the quotas must keep giving the
        # pinned family.
        assert_matches_golden("decimal-rows", monkeypatch)
        case = assert_matches_golden("floor-boundary", monkeypatch)
        rows = [
            {"A": 0.5, "B": 0.5},
            {"A": 0.5, "B": 0.25, "C": 0.25},
            {"A": 1.0 / 3.0, "B": 1.0 / 3.0, "C": 1.0 / 3.0},
            {"A": 0.75, "B": 0.25},
            {"A": 1.0},
            {"A": 2.0 / 3.0, "B": 1.0 / 3.0},
            {"A": 0.125, "B": 0.875},
        ] * 3
        expected = WeightedString.from_dicts(rows, Alphabet("ABC"), normalize=True)
        assert np.array_equal(case.matrix, expected.matrix)
        assert [run.z for run in case.runs] == [2.0, 3.0, 4.0, 8.0]

    def test_edge_sources_against_count_oracle(self):
        # The defining Count property must hold on the edge sources too
        # (spot checks on short patterns).
        source = WeightedString.from_dicts(
            [{"A": 0.5, "B": 0.5}] * 5 + [{"B": 1.0}] * 3,
            Alphabet("AB"),
        )
        z = 4.0
        estimation = build_z_estimation(source, z)
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            start = int(rng.integers(0, len(source) - m + 1))
            pattern = [int(code) for code in rng.integers(0, 2, m)]
            expected = int(
                np.floor(
                    z * source.occurrence_probability(pattern, start) + 1e-9
                )
            )
            assert estimation.count(pattern, start) == expected

    def test_golden_fixture_registry(self):
        # The fixtures span the alphabet sizes and thresholds the estimation
        # is pinned on, and their update waves exercise both replay modes
        # (and convergence) of the checkpointed resume.
        assert {
            "uniform-s3", "single-letter", "fully-certain", "tied-rows",
            "floor-boundary", "decimal-rows",
        } <= set(CASES)
        cases = [load_case(name) for name in CASES]
        assert {case.matrix.shape[1] for case in cases} >= {1, 4, 91, 300}
        assert {run.z for case in cases for run in case.runs} >= {1.0, 5.5, 8.0, 16.0}
        steps = [step for case in cases for run in case.runs for step in run.steps[1:]]
        modes = {int(step.replay[0]) for step in steps}
        assert modes == {0, 1}
        assert any(step.replay[2] >= 0 for step in steps)  # a converged resume
        assert any(
            len(run.steps[0].estimation.checkpoints) >= 5
            for case in cases
            for run in case.runs
        )


# --------------------------------------------------------------------------- #
# the sweep: leaf order, LCPs and pairing against Python, queries against     #
# the brute-force oracle                                                       #
# --------------------------------------------------------------------------- #
def common_prefix(first, second) -> int:
    limit = min(len(first), len(second))
    for offset in range(limit):
        if first[offset] != second[offset]:
            return offset
    return limit


def assert_sorted_like_python(collection: LeafCollection) -> None:
    """Leaf order vs a Python sort, adjacent LCPs vs the naive common prefix."""
    keys = [
        (tuple(collection.leaf_codes(index)), int(position), int(source))
        for index, (position, source) in enumerate(
            zip(collection.positions, collection.sources)
        )
    ]
    assert keys == sorted(keys)
    lcps = collection.adjacent_lcps()
    assert [int(value) for value in lcps[1:]] == [
        common_prefix(keys[index - 1][0], keys[index][0]) for index in range(1, len(keys))
    ]


def assert_explicit_data(data, *, paired: bool = True) -> None:
    """Both collections sorted like Python; pairs link the two leaves of a label.

    ``paired=False`` is data built for a kind without the grid query, which
    carries no pairing.
    """
    assert_sorted_like_python(data.forward)
    assert_sorted_like_python(data.backward)
    if not paired:
        assert data.pairs is None
        return
    forward, backward = data.forward, data.backward
    assert data.pairs == list(
        zip(forward.raw_to_sorted.tolist(), backward.raw_to_sorted.tolist())
    )
    assert sorted(x for x, _ in data.pairs) == list(range(len(forward)))
    for x, y in data.pairs:
        assert (forward.positions[x], forward.sources[x]) == (
            backward.positions[y],
            backward.sources[y],
        )


@pytest.mark.parametrize(
    "name,style,n,sigma,z,ell,seed", SWEEP, ids=[entry[0] for entry in SWEEP]
)
def test_construction_parity_sweep(tmp_path, name, style, n, sigma, z, ell, seed):
    source = random_weighted_string(style, n, sigma, seed)
    patterns = random_patterns(source, ell, seed + 1)
    assert patterns

    built = {kind: build_index(source, z, kind=kind, ell=ell) for kind in ALL_MONOLITHIC}
    for kind, index in built.items():
        assert_index_matches_oracle(index, source, patterns, z, (name, kind))
    assert_explicit_data(built["MWSA-G"].data)
    assert_explicit_data(built["MWSA"].data, paired=False)

    # Sharded builds: every shard is an explicit build of its slice.
    sharded = build_index(
        source, z, kind="MWSA", ell=ell, shards=3, max_pattern_len=2 * ell
    )
    assert_index_matches_oracle(sharded, source, patterns, z, (name, "sharded"))
    for shard in sharded.shard_indexes:
        assert_explicit_data(shard.data, paired=False)

    # Store round trip: the reloaded index keeps its leaves and pairing.
    grid_index = built["MWSA-G"]
    save_index(tmp_path / "new.idx", grid_index)
    loaded = load_index(tmp_path / "new.idx")
    assert_index_matches_oracle(loaded, source, patterns, z, (name, "store"))
    assert leaf_tuples(loaded.data.forward) == leaf_tuples(grid_index.data.forward)
    assert loaded.data.pairs == grid_index.data.pairs


def test_sort_parity_with_tiny_widening_limits(monkeypatch):
    """Force the widening rounds and the scalar-comparator fallback.

    Shrinking the prefix/widening limits makes every sort exercise the
    doubling rounds and the heavy-LCE fallback, which realistic alphabets
    almost never reach; the order and the adjacent LCPs must still be the
    Python sort's.
    """
    monkeypatch.setattr(LeafCollection, "PRESORT_PREFIX", 2)
    monkeypatch.setattr(LeafCollection, "SORT_WIDEN_LIMIT", 4)
    for seed in (31, 32):
        source = random_weighted_string("degenerate", 90, 3, seed)
        assert_explicit_data(build_index_data_from_estimation(source, 4.0, 3))


def test_sort_parity_beyond_byte_packing():
    """Letters ≥ 254 widen the packed keys to 2 bytes per letter; the sort is the same."""
    rng = np.random.default_rng(21)
    sigma = 300
    n = 60
    alphabet = Alphabet([f"s{i}" for i in range(sigma)])
    matrix = np.zeros((n, sigma))
    matrix[np.arange(n), rng.integers(0, sigma, n)] = 1.0
    fuzzy = rng.random(n) < 0.3
    matrix[fuzzy] = 0.0
    matrix[fuzzy, rng.integers(0, sigma, int(fuzzy.sum()))] = 0.6
    matrix[fuzzy, rng.integers(0, sigma, int(fuzzy.sum()))] += 0.4
    source = WeightedString(matrix, alphabet, normalize=True)
    data = build_index_data_from_estimation(source, 3.0, 2)
    assert len(data.forward) > 0
    assert data.forward._letter_bytes == 2
    assert_explicit_data(data)


def test_merge_carries_search_caches():
    """Update-merge keeps kept rows' packed search keys; fresh rows get new ones."""
    source = random_weighted_string("skewed", 80, 4, 2203)
    z, ell = 4.0, 3
    index = build_index(source, z, kind="MWSA", ell=ell)
    data = index.data
    # Warm the byte-key cache, then update through the localized repair.
    piece = [int(code) for code in source.heavy_codes()[:ell]]
    data.forward.prefix_range_many([piece])
    assert data.forward._search_keys is not None
    rng = np.random.default_rng(5)
    position = int(rng.integers(0, len(source)))
    row = np.zeros(source.sigma)
    row[int(rng.integers(source.sigma))] = 1.0
    report = index.apply_updates([(position, row)])
    assert report.strategy == "localized"
    merged = index.data.forward
    assert merged._search_keys is not None
    assert len(merged._search_keys) == len(merged)
    # The carried keys must equal a from-scratch build's.
    fresh = build_index(source, z, kind="MWSA", ell=ell).data.forward
    fresh.prefix_range_many([piece])
    assert np.array_equal(merged._search_keys, fresh._search_keys)
    # Answers must stay oracle-exact.
    fresh = build_index(source, z, kind="MWSA", ell=ell)
    patterns = random_patterns(source, ell, 99)
    assert index.match_many(patterns) == fresh.match_many(patterns)
