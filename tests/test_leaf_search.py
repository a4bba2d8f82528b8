"""The packed-key leaf search on the inputs that take its less common paths.

Every sort, update merge and prefix search of the minimizer leaves packs
leaf prefixes into one key format (1 byte per letter while every letter code
is ≤ 253, 2 bytes up to 65,533, then 4) and searches them one way, whether a
query holds one pattern or many.  These tests drive that search where the
keys are wider than a byte (σ = 300 with most letters ≥ 254), where query
letters exceed the key width, where query pieces are
longer than the keys (150–260-letter patterns over a repeat), and through
localized updates that keep or widen the key format.  Every answer is
checked against the brute-force oracle, once through ``locate`` and once
through one ``query_many`` batch of several patterns.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_differential_fuzz import assert_index_matches_oracle, leaf_tuples, random_patterns

from repro.core.alphabet import Alphabet
from repro.core.weighted_string import WeightedString
from repro.indexes import brute_force_occurrences, build_index
from repro.indexes.minimizer_core import FactorLeaf, LeafCollection

SIGMA = 300
WIDE_Z, WIDE_ELL = 3.0, 3


def wide_source(n: int, seed: int, *, letters: tuple[int, int] = (254, SIGMA)) -> WeightedString:
    """A σ = 300 string like the sort-parity input, its letters drawn from ``letters``.

    A 40-letter block repeats through most of the string so that patterns
    recur; 30% of the positions split between two letters.
    """
    rng = np.random.default_rng(seed)
    low, high = letters
    codes = rng.integers(low, high, n)
    block = rng.integers(low, high, 40)
    repeated = rng.random(n) < 0.7
    codes[repeated] = block[np.arange(n)[repeated] % 40]
    matrix = np.zeros((n, SIGMA))
    matrix[np.arange(n), codes] = 1.0
    fuzzy = rng.random(n) < 0.3
    matrix[fuzzy] = 0.0
    matrix[fuzzy, codes[fuzzy]] = 0.6
    matrix[fuzzy, rng.integers(low, high, int(fuzzy.sum()))] += 0.4
    return WeightedString(matrix, Alphabet([f"s{i}" for i in range(SIGMA)]), normalize=True)


def assert_answers(index, source, patterns, z, label) -> None:
    """``locate`` per pattern and one ``query_many`` batch, both against the oracle."""
    for pattern in patterns:
        assert index.locate(pattern) == brute_force_occurrences(source, pattern, z), (
            label,
            pattern,
        )
    assert_index_matches_oracle(index, source, patterns, z, label)


def expected_range(collection, piece) -> tuple[int, int]:
    """``[lo, hi)`` of the leaves starting with ``piece``, from materialised letters."""
    piece = tuple(int(code) for code in piece)
    heads = [
        tuple(collection.leaf_codes(index, limit=len(piece)))
        for index in range(len(collection))
    ]
    lo = sum(head < piece for head in heads)
    return lo, lo + sum(head == piece for head in heads)


# --------------------------------------------------------------------------- #
# 2-byte keys                                                                  #
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def wide():
    return wide_source(120, 4407)


@pytest.mark.parametrize("kind", ["MWSA", "MWSA-G", "MWST"])
def test_wide_alphabet_queries_match_oracle(wide, kind):
    index = build_index(wide, WIDE_Z, kind=kind, ell=WIDE_ELL)
    assert index.data.forward._letter_bytes == 2
    patterns = random_patterns(wide, WIDE_ELL, 11, count=24)
    assert any(brute_force_occurrences(wide, pattern, WIDE_Z) for pattern in patterns)
    assert_answers(index, wide, patterns, WIDE_Z, kind)


def test_wide_alphabet_sharded_queries_match_oracle(wide):
    index = build_index(
        wide, WIDE_Z, kind="MWSA", ell=WIDE_ELL, shards=3, max_pattern_len=2 * WIDE_ELL
    )
    patterns = random_patterns(wide, WIDE_ELL, 12, count=24)
    assert_answers(index, wide, patterns, WIDE_Z, "sharded")


def test_wide_alphabet_prefix_ranges(wide):
    """Ranges (empty ones included) sit where the materialised leaves put them."""
    collection = build_index(wide, WIDE_Z, kind="MWSA", ell=WIDE_ELL).data.forward
    heavy = wide.heavy_codes()
    pieces = [heavy[start : start + length] for start, length in ((0, 2), (17, 5), (60, 9))]
    pieces += [[299, 254, 0], [0], [253, 253]]
    ranges = collection.prefix_range_many(pieces)
    for piece, found in zip(pieces, ranges):
        assert tuple(found) == expected_range(collection, piece), piece
        assert tuple(collection.prefix_range_many([piece])[0]) == tuple(found)


def test_query_letters_above_one_byte_keys():
    """On 1-byte keys a query letter ≥ 254 sorts after every leaf letter.

    Letter 261 must not wrap around to the key byte of letter 5.
    """
    source = wide_source(120, 4408, letters=(0, 40))
    collection = build_index(source, WIDE_Z, kind="MWSA", ell=WIDE_ELL).data.forward
    assert collection._letter_bytes == 1
    first = int(source.heavy_codes()[0])
    pieces = [[261], [5], [first, 261], [first, 299, 5], [299]]
    for piece, found in zip(pieces, collection.prefix_range_many(pieces)):
        assert tuple(found) == expected_range(collection, piece), piece
    assert tuple(collection.prefix_range_many([[261]])[0]) == (
        len(collection), len(collection)
    )


def test_letters_above_two_byte_keys():
    """Codes ≥ 65,534 take 4-byte keys; sort and search stay exact."""
    rng = np.random.default_rng(9)
    reference = rng.choice([0, 1, 65_533, 65_534, 70_000], size=60)
    leaves = [
        FactorLeaf(anchor=int(anchor), length=int(length), mismatches=(), position=row)
        for row, (anchor, length) in enumerate(
            zip(rng.integers(0, 40, 80), rng.integers(1, 20, 80))
        )
    ]
    collection = LeafCollection(leaves, reference)
    assert collection._letter_bytes == 4
    keys = [tuple(collection.leaf_codes(index)) for index in range(len(collection))]
    assert keys == sorted(keys)
    pieces = [list(reference[5:8]), [70_000], [65_534, 70_000], [70_001], [2]]
    for piece, found in zip(pieces, collection.prefix_range_many(pieces)):
        assert tuple(found) == expected_range(collection, piece), piece


# --------------------------------------------------------------------------- #
# pieces longer than the search keys                                           #
# --------------------------------------------------------------------------- #
LONG_Z, LONG_ELL = 4.0, 8


@pytest.fixture(scope="module")
def repeat():
    """A mostly certain DNA-like string holding a 280-letter repeat."""
    rng = np.random.default_rng(8810)
    n = 800
    codes = rng.integers(0, 4, n)
    codes[450:730] = codes[60:340]
    matrix = np.zeros((n, 4))
    matrix[np.arange(n), codes] = 1.0
    fuzzy = np.nonzero(rng.random(n) < 0.02)[0]
    matrix[fuzzy] = 0.0
    matrix[fuzzy, codes[fuzzy]] = 0.85
    matrix[fuzzy, (codes[fuzzy] + 1) % 4] += 0.15
    return WeightedString(matrix, Alphabet("ACGT"))


def long_patterns(source: WeightedString) -> list[list[int]]:
    """Heavy windows of 150–260 letters in and across the repeat, plus tail mutants."""
    heavy = [int(code) for code in source.heavy_codes()]
    patterns = []
    for start, length in ((60, 200), (450, 260), (500, 250), (120, 150), (600, 180), (20, 230)):
        window = heavy[start : start + length]
        patterns.append(window)
        mutant = list(window)
        mutant[length - 30] = (mutant[length - 30] + 2) % 4  # differs past the keys
        patterns.append(mutant)
    return patterns


@pytest.mark.parametrize("kind", ["MWSA", "MWSA-G"])
def test_pieces_longer_than_the_keys_match_oracle(repeat, kind):
    index = build_index(repeat, LONG_Z, kind=kind, ell=LONG_ELL)
    patterns = long_patterns(repeat)
    found = [brute_force_occurrences(repeat, pattern, LONG_Z) for pattern in patterns]
    assert any(len(positions) > 1 for positions in found)  # the repeat answers twice
    assert any(not positions for positions in found)
    assert_answers(index, repeat, patterns, LONG_Z, kind)


def test_long_piece_ranges(repeat):
    collection = build_index(repeat, LONG_Z, kind="MWSA", ell=LONG_ELL).data.forward
    width = collection.SEARCH_PREFIX_LIMIT
    heavy = repeat.heavy_codes()
    pieces = [heavy[anchor : anchor + length] for anchor, length in ((60, 120), (450, 250))]
    pieces.append(np.concatenate([pieces[1][:200], [3, 3, 3, 3, 3]]))
    assert all(len(piece) > width for piece in pieces)
    ranges = collection.prefix_range_many(pieces)
    for piece, found in zip(pieces, ranges):
        assert tuple(found) == expected_range(collection, piece)
    assert ranges[0, 1] - ranges[0, 0] > 1


# --------------------------------------------------------------------------- #
# localized updates on 2-byte keys                                             #
# --------------------------------------------------------------------------- #
def certain_row(letter: int) -> np.ndarray:
    row = np.zeros(SIGMA)
    row[letter] = 1.0
    return row


@pytest.mark.parametrize(
    "letters,new_letter,bytes_before",
    [((254, SIGMA), 270, 2), ((0, 40), 299, 1)],
    ids=["keeps-2-byte-keys", "first-letter-above-253"],
)
def test_wide_alphabet_updates_equal_a_fresh_build(letters, new_letter, bytes_before):
    source = wide_source(300, 5501, letters=letters)
    index = build_index(source, WIDE_Z, kind="MWSA", ell=WIDE_ELL)
    patterns = random_patterns(source, WIDE_ELL, 21, count=18)
    index.match_many(patterns)  # build the search keys the merge carries or re-keys
    assert index.data.forward._letter_bytes == bytes_before
    report = index.apply_updates([(150, certain_row(new_letter))])
    assert report.strategy == "localized"
    fresh = build_index(source, WIDE_Z, kind="MWSA", ell=WIDE_ELL)
    for side in ("forward", "backward"):
        merged, rebuilt = getattr(index.data, side), getattr(fresh.data, side)
        assert leaf_tuples(merged) == leaf_tuples(rebuilt)
        assert merged._letter_bytes == 2
    merged = index.data.forward
    assert merged._search_keys is not None  # the two-run merge kept its keys
    fresh.data.forward.prefix_range_many([[new_letter]])
    assert np.array_equal(merged._search_keys, fresh.data.forward._search_keys)
    heavy = [int(code) for code in source.heavy_codes()]
    patterns += [heavy[start : start + 2 * WIDE_ELL] for start in (146, 148, 150)]
    assert_answers(index, source, patterns, WIDE_Z, "updated")
