"""Edge cases of batch queries (``match_many``).

Every case asserts agreement with one ``locate`` call per pattern: answering
a batch at once must be a pure throughput optimisation, never a semantic
change.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from test_oracle_equivalence import random_source
from repro.cli import main as cli_main
from repro.errors import PatternError
from repro.indexes import (
    INDEX_CLASSES,
    HeavyMismatchVerifier,
    LeafCollection,
    MinimizerWSA,
    QueryPlanner,
    WeightedSuffixArray,
    build_index,
    verify_against_source,
    verify_candidate_batches,
    verify_candidates_against_source,
)
from repro.strings.trie import CompactedTrie

MINIMIZER_KINDS = ("MWST", "MWSA", "MWST-G", "MWSA-G", "MWST-SE")


@pytest.fixture(scope="module")
def source():
    return random_source(48, 3, 17)


@pytest.fixture(scope="module")
def indexes(source):
    return {
        kind: build_index(source, 4, kind=kind, ell=4) for kind in INDEX_CLASSES
    }


def patterns_for(source, count=12, lengths=(4, 5, 8, 9), seed=5):
    rng = np.random.default_rng(seed)
    patterns = []
    for _ in range(count):
        m = int(rng.choice(lengths))
        patterns.append([int(code) for code in rng.integers(0, source.sigma, size=m)])
    return patterns


class TestAgreementWithLocate:
    @pytest.mark.parametrize("kind", sorted(INDEX_CLASSES))
    def test_match_many_equals_locate_loop(self, indexes, source, kind):
        index = indexes[kind]
        patterns = patterns_for(source)
        assert index.match_many(patterns) == [
            index.locate(pattern) for pattern in patterns
        ]

    def test_text_patterns_coerced_like_locate(self, indexes):
        index = indexes["MWSA"]
        assert index.match_many(["ABAB"]) == [index.locate("ABAB")]

    def test_array_patterns_accepted(self, indexes):
        index = indexes["MWSA"]
        pattern = np.array([0, 1, 0, 1], dtype=np.int64)
        assert index.match_many([pattern]) == [index.locate(pattern)]


class TestEdgeCases:
    def test_empty_pattern_list(self, indexes):
        for index in indexes.values():
            assert index.match_many([]) == []

    def test_duplicate_patterns_answered_once(self, indexes):
        index = indexes["MWSA"]
        pattern = [0, 1, 0, 1, 2]
        planner = QueryPlanner(index)
        results = planner.execute([pattern, pattern, pattern])
        assert [result.positions for result in results] == [index.locate(pattern)] * 3
        assert planner.last_stats == {
            "patterns": 3,
            "unique_patterns": 1,
            "subqueries": 3,
            "fan_out": False,
            "generation": 0,
        }

    def test_duplicate_results_are_independent_lists(self, indexes):
        index = indexes["MWSA"]
        pattern = [0, 1, 0, 1]
        first, second = index.match_many([pattern, pattern])
        first.append(-1)
        assert second == index.locate(pattern)

    @pytest.mark.parametrize("kind", MINIMIZER_KINDS)
    def test_pattern_shorter_than_ell_raises_like_locate(self, indexes, kind):
        index = indexes[kind]
        short = [0, 1]
        with pytest.raises(PatternError):
            index.locate(short)
        with pytest.raises(PatternError):
            index.match_many([[0, 1, 0, 1], short])

    def test_empty_pattern_raises_like_locate(self, indexes):
        for index in indexes.values():
            with pytest.raises(PatternError):
                index.locate([])
            with pytest.raises(PatternError):
                index.match_many([[0] * index.minimum_pattern_length, []])

    def test_letter_outside_alphabet_raises_like_locate(self, indexes):
        for index in indexes.values():
            bad = [0, 9, 0, 0]
            with pytest.raises(PatternError):
                index.locate(bad)
            with pytest.raises(PatternError):
                index.match_many([bad])

    def test_pattern_longer_than_text_is_empty(self, indexes, source):
        patterns = [[0] * (len(source) + 3)]
        for index in indexes.values():
            assert index.locate(patterns[0]) == []
            assert index.match_many(patterns) == [[]]

    def test_non_solid_pattern_is_empty(self):
        # One position has probability 0 for letter B everywhere relevant:
        # patterns through it can never be z-valid.
        from repro.core.alphabet import Alphabet
        from repro.core.weighted_string import WeightedString

        alphabet = Alphabet(["A", "B"])
        matrix = np.zeros((12, 2))
        matrix[:, 0] = 1.0  # the string is certainly AAAA...
        ws = WeightedString(matrix, alphabet)
        index = MinimizerWSA.build(ws, 4, 3)
        baseline = WeightedSuffixArray.build(ws, 4)
        non_solid = [0, 1, 0, 0]
        assert index.locate(non_solid) == []
        assert index.match_many([non_solid]) == [[]]
        assert baseline.match_many([non_solid]) == [[]]

    def test_mixed_batch_matches_per_pattern(self, indexes, source):
        index = indexes["MWSA-G"]
        patterns = patterns_for(source, count=20, seed=9)
        patterns.append([0] * (len(source) + 1))  # longer than the text
        patterns.append(patterns[0])  # duplicate
        assert index.match_many(patterns) == [
            index.locate(pattern) for pattern in patterns
        ]


class TestLeafSearchPerVariant:
    """Tree variants walk their tries; array variants search the packed keys."""

    def _count_searches(self, monkeypatch):
        calls = {"descend": 0, "prefix_range_many": 0}
        for owner, name in (
            (CompactedTrie, "descend"),
            (LeafCollection, "prefix_range_many"),
        ):
            original = getattr(owner, name)

            def spy(self, *args, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(owner, name, spy)
        return calls

    @pytest.mark.parametrize("kind", ("MWST", "MWST-G", "MWST-SE"))
    def test_tree_variants_descend_their_tries(self, indexes, source, kind, monkeypatch):
        index = indexes[kind]
        patterns = patterns_for(source)
        calls = self._count_searches(monkeypatch)
        index.match_many(patterns)
        assert calls["descend"] > 0
        assert calls["prefix_range_many"] == 0

    @pytest.mark.parametrize("kind", ("MWSA", "MWSA-G", "3-shard MWSA"))
    def test_array_variants_never_descend(self, indexes, source, kind, monkeypatch):
        if kind == "3-shard MWSA":
            index = build_index(source, 4, kind="MWSA", ell=4, shards=3, max_pattern_len=9)
        else:
            index = indexes[kind]
        patterns = patterns_for(source)
        calls = self._count_searches(monkeypatch)
        index.match_many(patterns)
        assert calls["prefix_range_many"] > 0
        assert calls["descend"] == 0


class TestBatchVerifiers:
    """The batched verification APIs must agree with their scalar siblings."""

    def test_verify_candidates_against_source_matches_scalar(self, source):
        z = 4.0
        rng = np.random.default_rng(3)
        for m in (3, 5, 8):
            pattern = [int(code) for code in rng.integers(0, source.sigma, size=m)]
            positions = np.arange(-2, len(source) + 2, dtype=np.int64)
            mask = verify_candidates_against_source(source, pattern, positions, z)
            expected = [
                verify_against_source(source, pattern, int(position), z)
                for position in positions
            ]
            assert mask.tolist() == expected

    def test_verify_candidate_batches_matches_scalar(self, source):
        z = 4.0
        rng = np.random.default_rng(4)
        patterns = [
            [int(code) for code in rng.integers(0, source.sigma, size=m)]
            for m in (3, 3, 6, len(source) + 2)  # mixed lengths, one too long
        ]
        candidates = [
            np.arange(0, len(source), 3, dtype=np.int64),
            None,
            np.array([-1, 0, 5, len(source) + 5], dtype=np.int64),
            np.array([0], dtype=np.int64),
        ]
        rows = np.concatenate(
            [np.full(len(c), row) for row, c in enumerate(candidates) if c is not None]
        )
        starts = np.concatenate([c for c in candidates if c is not None])
        results = verify_candidate_batches(source, z, patterns, rows, starts)
        for pattern, cands, got in zip(patterns, candidates, results):
            if cands is None:
                assert got == []
            else:
                assert got == [
                    int(position)
                    for position in cands
                    if verify_against_source(source, pattern, int(position), z)
                ]

    def test_out_of_range_candidates_never_verify(self):
        # Out-of-range starts read a clamped window; on a certain string
        # that window is solid, so only the range mask keeps them out.
        from repro.core.alphabet import Alphabet
        from repro.core.weighted_string import WeightedString

        matrix = np.zeros((10, 2))
        matrix[:, 0] = 1.0
        certain = WeightedString(matrix, Alphabet(["A", "B"]))
        candidates = np.array([-3, -1, 0, 6, 7, 12], dtype=np.int64)
        for with_probabilities in (False, True):
            (result,) = verify_candidate_batches(
                certain, 4.0, [[0, 0, 0, 0]], np.zeros(len(candidates), dtype=np.int64), candidates,
                with_probabilities=with_probabilities,
            )
            positions = result[0] if with_probabilities else result
            assert positions == [0, 6]

    def test_heavy_mismatch_verifier_batch_matches_scalar(self, source):
        z = 4.0
        verifier = HeavyMismatchVerifier(source)
        rng = np.random.default_rng(5)
        for m in (3, 6):
            pattern = [int(code) for code in rng.integers(0, source.sigma, size=m)]
            positions = np.arange(-1, len(source) + 1, dtype=np.int64)
            logs = verifier.occurrence_log_probabilities(pattern, positions)
            mask = verifier.valid_mask(pattern, positions, z)
            for position, log_probability, valid in zip(positions, logs, mask):
                scalar = verifier.occurrence_probability(pattern, int(position))
                assert np.exp(log_probability) == pytest.approx(scalar, abs=1e-12)
                assert bool(valid) == verifier.is_valid(pattern, int(position), z)

    def test_match_many_pattern_longer_than_text_with_candidates(self):
        # Regression: a pattern longer than the text whose forward piece
        # still matches a leaf must return [] (not crash on the gather).
        from repro.core.alphabet import Alphabet
        from repro.core.weighted_string import WeightedString

        alphabet = Alphabet(["A", "B"])
        matrix = np.zeros((12, 2))
        matrix[:, 0] = 0.9
        matrix[:, 1] = 0.1
        ws = WeightedString(matrix, alphabet)
        index = MinimizerWSA.build(ws, 2, 10)
        pattern = [1] + [0] * 12  # m = 13 > n = 12
        assert index.locate(pattern) == []
        assert index.match_many([pattern]) == [[]]


class TestQueryBatchCli:
    def test_query_batch_cli_roundtrip(self, tmp_path, capsys):
        pattern_file = tmp_path / "patterns.txt"
        pattern_file.write_text("ACGTACGT\nTTTTCCCC\nACGTACGT\n")
        exit_code = cli_main(
            [
                "query-batch",
                "--dataset",
                "SARS",
                "--length",
                "200",
                "--z",
                "4",
                "--ell",
                "4",
                "--kind",
                "MWSA",
                "--patterns-file",
                str(pattern_file),
            ]
        )
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["patterns"] == 3
        assert report["unique_patterns"] == 2
        assert report["patterns_per_second"] > 0
        assert set(report["occurrences"]) == {"ACGTACGT", "TTTTCCCC"}

    def test_query_batch_cli_requires_patterns(self, capsys):
        exit_code = cli_main(
            ["query-batch", "--dataset", "SARS", "--length", "120", "--z", "2"]
        )
        assert exit_code == 1
        assert "no patterns" in capsys.readouterr().err
