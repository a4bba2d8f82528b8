"""The serving layer: QueryService caching semantics and the serve/query CLI."""

from __future__ import annotations

import io
import json

import pytest

from test_oracle_equivalence import random_source

from repro.cli import main as cli_main
from repro.errors import PatternError
from repro.indexes import Query, build_index
from repro.io.pwm import write_pwm
from repro.service import QueryService

Z = 4.0
ELL = 4


@pytest.fixture(scope="module")
def source():
    return random_source(40, 2, 11)


@pytest.fixture(scope="module")
def index(source):
    return build_index(source, Z, kind="MWSA", ell=ELL)


def text_of(source, codes) -> str:
    return source.alphabet.decode(codes)


class TestQueryServiceCache:
    def test_hits_misses_and_identical_answers(self, index):
        service = QueryService(index)
        pattern = [0, 1, 0, 0]
        first = service.query(pattern)
        second = service.query(pattern)
        assert first.positions == index.locate(pattern)
        assert second is first  # served from the cache
        stats = service.stats()
        assert stats["queries"] == 2
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert 0.0 < stats["hit_rate"] <= 0.5
        assert stats["entries"] == 1

    def test_text_and_code_patterns_share_one_entry(self, index, source):
        service = QueryService(index)
        codes = [0, 1, 1, 0]
        service.query(codes)
        result = service.query(text_of(source, codes))
        assert service.stats() == {**service.stats(), "hits": 1, "misses": 1}
        assert result.positions == index.locate(codes)

    def test_mode_and_threshold_are_part_of_the_key(self, index):
        service = QueryService(index)
        pattern = [0, 1, 0, 0]
        service.query(pattern)
        service.query(pattern, mode="count")
        service.query(pattern, z=2.0)
        assert service.stats()["misses"] == 3
        assert service.stats()["hits"] == 0

    def test_batch_duplicates_counted_as_hits(self, index):
        service = QueryService(index)
        pattern = [0, 0, 1, 0]
        results = service.query_many([pattern, pattern, pattern])
        stats = service.stats()
        assert stats["misses"] == 1 and stats["hits"] == 2
        assert results[0] is results[1] is results[2]

    def test_lru_eviction(self, index):
        service = QueryService(index, cache_size=2)
        patterns = ([0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0])
        for pattern in patterns:
            service.query(pattern)
        stats = service.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        # The oldest entry was evicted: repeating it is a miss again.
        service.query(patterns[0])
        assert service.stats()["misses"] == 4

    def test_cache_disabled(self, index):
        service = QueryService(index, cache_enabled=False)
        pattern = [0, 1, 0, 0]
        first = service.query(pattern)
        second = service.query(pattern)
        stats = service.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        assert stats["entries"] == 0 and stats["cache_enabled"] is False
        assert first.positions == second.positions

    def test_options_with_prebuilt_query_rejected(self, index):
        from repro.errors import QueryError

        service = QueryService(index)
        with pytest.raises(QueryError, match="prebuilt Query"):
            service.query(Query([0, 1, 0, 0]), mode="count")

    def test_rich_modes_match_index(self, index):
        service = QueryService(index)
        pattern = [0, 1, 0, 0]
        topk = service.query(pattern, mode="topk", k=2)
        assert list(zip(topk.positions, topk.probabilities)) == index.topk(pattern, 2)
        sweep = service.query(Query(pattern, mode="count", zs=(2.0, Z)))
        assert [sub.count for sub in sweep.sweep] == [
            index.query(pattern, mode="count", z=z).count for z in (2.0, Z)
        ]

    def test_clear_cache_and_reset_stats(self, index):
        service = QueryService(index)
        service.query([0, 1, 0, 0])
        service.clear_cache()
        assert service.stats()["entries"] == 0
        assert service.stats()["misses"] == 1
        service.reset_stats()
        assert service.stats()["misses"] == 0

    def test_errors_propagate_and_leave_stats_untouched(self, index):
        service = QueryService(index)
        with pytest.raises(PatternError):
            service.query([0])  # shorter than ell
        stats = service.stats()
        assert stats["entries"] == 0
        assert stats["queries"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert service.query([0, 1, 0, 0]).positions == index.locate([0, 1, 0, 0])
        assert service.stats()["misses"] == 1


class TestDedupAccounting:
    """Pin the served-traffic accounting: in-batch duplicates count as hits."""

    def test_dedup_hits_counted_into_hit_rate(self, index):
        service = QueryService(index)
        pattern = [0, 0, 1, 0]
        service.query_many([pattern, pattern, pattern, [0, 1, 0, 0]])
        stats = service.stats()
        assert stats["misses"] == 2
        assert stats["cache_hits"] == 0
        assert stats["dedup_hits"] == 2
        assert stats["hits"] == stats["cache_hits"] + stats["dedup_hits"] == 2
        assert stats["hit_rate"] == pytest.approx(0.5)
        # A repeat of the now-cached pattern is a true cache hit.
        service.query(pattern)
        stats = service.stats()
        assert stats["cache_hits"] == 1 and stats["dedup_hits"] == 2
        assert stats["hits"] == 3

    def test_dedup_hits_still_counted_with_cache_disabled(self, index):
        service = QueryService(index, cache_enabled=False)
        pattern = [0, 1, 0, 0]
        results = service.query_many([pattern, pattern])
        assert results[0] is results[1]  # deduplicated, one execution
        stats = service.stats()
        assert stats["misses"] == 1 and stats["dedup_hits"] == 1
        assert stats["cache_hits"] == 0
        assert stats["hit_rate"] == pytest.approx(0.5)


def fresh_update_fixture():
    """A service over a 3-letter index whose updates we fully control.

    Positions 0..5 spell certain 'ABABAB'; 6 and 8..11 are certain 'C';
    position 7 is uncertain ``{A: 0.5, B: 0.25, C: 0.25}``.  Built per-test
    (module fixtures must stay pristine across mutation tests).
    """
    import numpy as np

    from repro.core.alphabet import Alphabet
    from repro.core.weighted_string import WeightedString

    matrix = np.zeros((12, 3))
    for position in range(6):
        matrix[position, position % 2] = 1.0  # A B A B A B
    matrix[6:, 2] = 1.0  # C C C C C C
    matrix[7] = [0.5, 0.25, 0.25]
    source = WeightedString(matrix, Alphabet("ABC"))
    service_index = build_index(source, Z, kind="MWSA", ell=2)
    return source, service_index, QueryService(service_index)


class TestUpdateInvalidation:
    def test_changed_entry_never_served_stale(self):
        source, index, service = fresh_update_fixture()
        before = service.query("ABAB").positions
        assert 0 in before
        response = service.update([(1, {"C": 1.0})])  # breaks every ABAB hit
        assert response["invalidated_entries"] == 1
        after = service.query("ABAB")
        assert after.positions == index.locate("ABAB")
        assert 0 not in after.positions
        stats = service.stats()
        assert stats["misses"] == 2  # the post-update query re-executed
        assert stats["updates"] == 1 and stats["invalidations"] == 1
        assert stats["generation"] == 1 and stats["index_generation"] == 1

    def test_unaffected_entries_survive_and_hit(self):
        source, index, service = fresh_update_fixture()
        survivor = service.query("ABA").positions
        # Every probed 'ABA' probability around position 10 is 0 before and
        # after (position 8..11 carry no A/B mass either way): the entry's
        # answer cannot have changed and must survive.
        response = service.update([(10, {"B": 0.3, "C": 0.7})])
        assert response["invalidated_entries"] == 0
        assert response["surviving_entries"] == 1
        hits_before = service.stats()["cache_hits"]
        again = service.query("ABA")
        assert service.stats()["cache_hits"] == hits_before + 1
        assert again.positions == survivor == index.locate("ABA")

    def test_probability_neutral_update_keeps_entry(self):
        source, index, service = fresh_update_fixture()
        service.query("AC")  # occurs at 7 via P(A@7) = 0.5, P(C@8) = 1
        # The update only moves the B/C split at position 7; P(A@7) stays
        # exactly 0.5, so every probed 'AC' probability is bit-identical.
        # Exact binary fractions summing to 1.0: renormalization is a no-op
        # and P(A@7) keeps its exact bits.
        response = service.update([(7, {"A": 0.5, "B": 0.125, "C": 0.375})])
        assert response["invalidated_entries"] == 0
        hits_before = service.stats()["cache_hits"]
        service.query("AC")
        assert service.stats()["cache_hits"] == hits_before + 1

    def test_update_invalidates_only_affected_among_many(self):
        source, index, service = fresh_update_fixture()
        service.query("ABAB")   # touches position 1
        service.query("BA")     # touches position 1 via starts {0,1}
        service.query("AA")     # tail-only pattern, P=0.25 per A at 6..11
        response = service.update([(1, {"A": 0.5, "B": 0.5})])
        # P(A at 1) goes 0 → 0.5, which moves probed probabilities of all
        # three patterns (e.g. 'AA' at start 0 goes 0 → 0.5): all are
        # affected, none may be served stale.
        assert response["invalidated_entries"] == 3
        for pattern in ("ABAB", "BA", "AA"):
            assert service.query(pattern).positions == index.locate(pattern)

    def test_update_with_cache_disabled(self):
        source, index, service_ignored = fresh_update_fixture()
        service = QueryService(index, cache_enabled=False)
        response = service.update([(0, {"B": 1.0})])
        assert response["invalidated_entries"] == 0
        assert service.query("BB").positions == index.locate("BB")

    def test_mode_specific_entries_checked_independently(self):
        source, index, service = fresh_update_fixture()
        service.query("ABAB", mode="count")
        service.query("ABAB", mode="topk", k=2)
        response = service.update([(1, {"C": 1.0})])
        assert response["invalidated_entries"] == 2
        assert service.query("ABAB", mode="count").count == index.count("ABAB")


class TestWarmRewarm:
    """Warm-log entries invalidated by an update must be re-warmed.

    Without re-warming, an updated hot pattern misses on its first
    post-update request even though the operator declared it hot — the
    warm-up's whole point.  ``warm(..., remember=True)`` keeps the warm set
    and :meth:`QueryService.rewarm` re-executes exactly the invalidated
    entries from inside ``update`` / ``adopt_index``.
    """

    def test_update_rewarms_invalidated_warm_entries(self):
        source, index, service = fresh_update_fixture()
        warm = service.warm(["ABAB", "CC", "ABAB"], remember=True)
        assert warm["warmed"] == 2
        # Breaks every ABAB occurrence; 'CC' stays probability-0 over the
        # probed starts and survives.
        response = service.update([(1, {"C": 1.0})])
        assert response["invalidated_entries"] == 1
        assert response["rewarmed_entries"] == 1
        # First post-update wave: the unaffected pattern hits its surviving
        # entry, the affected one hits its re-warmed entry.
        hits_before = service.stats()["cache_hits"]
        wave = service.query_many(["ABAB", "CC"])
        assert service.stats()["cache_hits"] == hits_before + 2
        # ...and the re-warmed entry is the post-update answer, not stale.
        assert wave[0].positions == index.locate("ABAB")
        assert service.stats()["rewarms"] == 1
        assert service.stats()["warm_set"] == 2

    def test_evicted_warm_entries_are_not_rewarmed(self):
        source, index, _ = fresh_update_fixture()
        service = QueryService(index, cache_size=2)
        service.warm(["ABAB", "CC"], remember=True)
        service.query("ABA")
        service.query("BAB")  # the LRU has now evicted both warm entries
        response = service.update([(1, {"C": 1.0})])
        assert response["invalidated_entries"] == 2  # ABA and BAB
        assert response["rewarmed_entries"] == 0
        assert service.stats()["rewarms"] == 0

    def test_without_remember_no_rewarm(self):
        source, index, service = fresh_update_fixture()
        service.warm(["ABAB"])
        response = service.update([(1, {"C": 1.0})])
        assert response["invalidated_entries"] == 1
        assert response["rewarmed_entries"] == 0
        hits_before = service.stats()["cache_hits"]
        service.query("ABAB")  # miss: nothing re-warmed it
        assert service.stats()["cache_hits"] == hits_before

    def test_adopt_index_rewarms_invalidated_warm_entries(self):
        import numpy as np

        from repro.core.weighted_string import WeightedString

        source, index, service = fresh_update_fixture()
        service.warm(["ABAB", "CC"], remember=True)
        matrix = np.array(source.matrix, copy=True)
        matrix[1] = [0.0, 0.0, 1.0]  # B -> C at position 1
        new_source = WeightedString(matrix, source.alphabet)
        new_index = build_index(new_source, Z, kind="MWSA", ell=2)
        report = service.adopt_index(new_index, positions=[1], generation=5)
        assert report["invalidated_entries"] == 1
        assert report["rewarmed_entries"] == 1
        assert report["service_generation"] == 5
        hits_before = service.stats()["cache_hits"]
        wave = service.query_many(["ABAB", "CC"])
        assert service.stats()["cache_hits"] == hits_before + 2
        assert wave[0].positions == new_index.locate("ABAB")


@pytest.fixture()
def pwm_path(tmp_path, paper_example):
    path = tmp_path / "example.pwm"
    write_pwm(path, paper_example)
    return path


def build_args(pwm_path, *extra, kind="MWSA"):
    return ["--pwm", str(pwm_path), "--z", "4", "--kind", kind, "--ell", "4", *extra]


class TestQueryModeCli:
    def test_query_probs_json_schema(self, pwm_path, capsys):
        assert (
            cli_main(["query", *build_args(pwm_path), "--probs", "--json", "AAAA"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.query.v1"
        assert payload["mode"] == "locate_probs"
        assert payload["elapsed_seconds"] >= 0
        (result,) = payload["results"]
        assert result["positions"] == [0]
        assert result["probabilities"] == [pytest.approx(0.3, abs=1e-12)]

    def test_query_topk(self, pwm_path, capsys):
        # The WSA baseline serves patterns of any length >= 1.
        assert (
            cli_main(["query", *build_args(pwm_path, kind="WSA"), "--topk", "2", "AB"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "topk"
        result = payload["results"]["AB"]
        assert result["positions"][0] == 0
        assert len(result["positions"]) == 2
        assert result["probabilities"][0] >= result["probabilities"][1]

    def test_query_batch_count_mode_json(self, pwm_path, capsys):
        assert (
            cli_main(
                ["query-batch", *build_args(pwm_path), "--mode", "count", "--json",
                 "AAAA", "AAAA", "ABAA"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["patterns"] == 3
        assert payload["unique_patterns"] == 2
        assert payload["patterns_per_second"] > 0
        counts = {r["pattern"]: r["count"] for r in payload["results"]}
        assert counts["AAAA"] == 1

    def test_pattern_error_exit_code_two(self, pwm_path, capsys):
        assert cli_main(["query", *build_args(pwm_path), "AA"]) == 2
        assert "error" in capsys.readouterr().err
        assert cli_main(["query", *build_args(pwm_path), ""]) == 2
        assert "empty patterns" in capsys.readouterr().err

    def test_conflicting_mode_flags_rejected(self, pwm_path, capsys):
        assert (
            cli_main(
                ["query", *build_args(pwm_path), "--mode", "count", "--topk", "2", "AAAA"]
            )
            == 1
        )
        assert "--topk" in capsys.readouterr().err
        assert cli_main(["query", *build_args(pwm_path), "--mode", "topk", "AAAA"]) == 1


class TestServeCli:
    def _serve(self, monkeypatch, capsys, pwm_path, script, *extra, kind="MWSA"):
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        exit_code = cli_main(["serve", *build_args(pwm_path, kind=kind), *extra])
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        return exit_code, lines

    def test_serve_loop(self, monkeypatch, capsys, pwm_path):
        script = (
            "AAAA\n"
            '{"pattern": "AB", "mode": "topk", "k": 2}\n'
            "AAAA\n"
            "stats\n"
        )
        exit_code, lines = self._serve(
            monkeypatch, capsys, pwm_path, script, kind="WSA"
        )
        assert exit_code == 0
        locate, topk, repeat, stats, final = lines
        assert locate["positions"] == [0] and locate["cached"] is False
        assert topk["mode"] == "topk" and len(topk["positions"]) == 2
        assert repeat["cached"] is True
        assert stats["stats"]["hits"] == 1 and stats["stats"]["misses"] == 2
        assert final["stats"]["queries"] == 3

    def test_serve_update_op(self, monkeypatch, capsys, pwm_path):
        script = (
            "AAAA\n"
            '{"cmd": "update", "updates": [{"position": 0, "distribution": {"B": 1.0}}]}\n'
            "AAAA\n"
            "stats\n"
        )
        exit_code, lines = self._serve(monkeypatch, capsys, pwm_path, script)
        assert exit_code == 0
        before, update, after, stats, final = lines
        assert before["positions"] == [0]
        assert update["update"]["positions"] == [0]
        assert update["update"]["strategy"] in {"localized", "full-rebuild"}
        assert update["update"]["invalidated_entries"] == 1
        assert after["positions"] == []  # the update killed the occurrence
        assert after["cached"] is False
        assert stats["stats"]["updates"] == 1
        assert stats["stats"]["index_generation"] == 1

    def test_serve_malformed_update_keeps_loop_alive(self, monkeypatch, capsys, pwm_path):
        script = '{"cmd": "update", "updates": [{"position": 999}]}\nAAAA\n'
        exit_code, lines = self._serve(monkeypatch, capsys, pwm_path, script)
        assert exit_code == 0
        bad, good, final = lines
        assert "position" in bad["error"]
        assert good["positions"] == [0]

    def test_serve_update_must_be_explicit(self, monkeypatch, capsys, pwm_path):
        """A stray 'updates' field on a query must error, never mutate."""
        script = (
            '{"pattern": "AAAA", "updates": [{"position": 0, "distribution": {"B": 1.0}}]}\n'
            '{"cmd": "update", "pattern": "AAAA", "updates": []}\n'
            "AAAA\n"
        )
        exit_code, lines = self._serve(monkeypatch, capsys, pwm_path, script)
        assert exit_code == 0
        stray, mixed, query, final = lines
        assert "cmd" in stray["error"]
        assert "pattern" in mixed["error"]
        # The index was never mutated: AAAA still occurs at 0.
        assert query["positions"] == [0]
        assert final["stats"]["updates"] == 0

    def test_serve_bad_requests_keep_the_loop_alive(self, monkeypatch, capsys, pwm_path):
        script = "AAA\n{broken json\n" + '{"mode": "locate"}\n' + "AAAA\n"
        exit_code, lines = self._serve(monkeypatch, capsys, pwm_path, script)
        assert exit_code == 0
        too_short, bad_json, no_pattern, good, final = lines
        assert "length >= 4" in too_short["error"]
        assert "invalid JSON" in bad_json["error"]
        assert "'pattern' field" in no_pattern["error"]
        assert good["positions"] == [0]
        assert final["stats"]["queries"] == 1

    def test_serve_survives_wrongly_typed_requests(self, monkeypatch, capsys, pwm_path):
        """Structurally broken field types produce error lines, not crashes."""
        script = (
            '{"pattern": "AAAA", "mode": "topk", "k": "x"}\n'
            '{"pattern": "AAAA", "zs": 2}\n'
            '{"pattern": 5}\n'
            "AAAA\n"
        )
        exit_code, lines = self._serve(monkeypatch, capsys, pwm_path, script)
        assert exit_code == 0
        bad_k, bad_zs, bad_pattern, good, final = lines
        assert "k must be an integer" in bad_k["error"]
        assert "error" in bad_zs and "error" in bad_pattern
        assert good["positions"] == [0]
        assert final["stats"]["queries"] == 1

    def test_serve_no_cache(self, monkeypatch, capsys, pwm_path):
        exit_code, lines = self._serve(
            monkeypatch, capsys, pwm_path, "AAAA\nAAAA\n", "--no-cache"
        )
        assert exit_code == 0
        assert [line["cached"] for line in lines[:2]] == [False, False]
        assert lines[-1]["stats"]["cache_enabled"] is False

    def test_serve_multi_z_sweep_request(self, monkeypatch, capsys, pwm_path):
        script = '{"pattern": "AB", "mode": "count", "zs": [2, 4]}\n'
        exit_code, lines = self._serve(
            monkeypatch, capsys, pwm_path, script, kind="WSA"
        )
        assert exit_code == 0
        response = lines[0]
        assert [entry["z"] for entry in response["sweep"]] == [2.0, 4.0]

    def test_serve_empty_sweep_is_an_error_not_a_single_z_answer(
        self, monkeypatch, capsys, pwm_path
    ):
        script = '{"pattern": "AAAA", "zs": []}\n'
        exit_code, lines = self._serve(monkeypatch, capsys, pwm_path, script)
        assert exit_code == 0
        assert "at least one z" in lines[0]["error"]


class TestUpdateCli:
    def test_update_single_file_store(self, tmp_path, pwm_path, capsys):
        store = tmp_path / "example.idx"
        assert cli_main(["build", *build_args(pwm_path), "--store", str(store)]) == 0
        capsys.readouterr()
        updates = tmp_path / "updates.json"
        updates.write_text(
            json.dumps([{"position": 0, "distribution": {"B": 1.0}}])
        )
        assert (
            cli_main(["update", "--store", str(store), "--updates-file", str(updates)])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["positions"] == [0]
        assert payload["store"]["path"] == str(store)
        # The rewritten store serves the mutated string: AAAA no longer occurs.
        assert cli_main(["query", "--store", str(store), "--json", "AAAA"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"][0]["positions"] == []

    def test_update_directory_store_rewrites_dirty_shards_only(self, tmp_path, capsys):
        import numpy as np

        from repro.core.alphabet import Alphabet
        from repro.core.weighted_string import WeightedString

        rng = np.random.default_rng(21)
        matrix = np.full((60, 2), 0.1)
        matrix[np.arange(60), rng.integers(0, 2, 60)] = 0.9
        write_path = tmp_path / "big.pwm"
        write_pwm(write_path, WeightedString(matrix, Alphabet("AB"), normalize=True))
        store = tmp_path / "shards"
        assert (
            cli_main(
                ["build", "--pwm", str(write_path), "--z", "4", "--ell", "4",
                 "--kind", "MWSA", "--shards", "3", "--store-dir", str(store)]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            cli_main(
                ["update", "--store", str(store), "--updates",
                 '[{"position": 1, "distribution": {"A": 1.0}}]']
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "dirty-shards"
        assert payload["store"]["rewritten"] == payload["rebuilt_shards"] == [0]
        assert payload["store"]["skipped"] == 2

    def test_update_requires_exactly_one_source_of_updates(self, tmp_path, pwm_path, capsys):
        store = tmp_path / "example.idx"
        assert cli_main(["build", *build_args(pwm_path), "--store", str(store)]) == 0
        capsys.readouterr()
        assert cli_main(["update", "--store", str(store)]) == 1
        assert "exactly one" in capsys.readouterr().err


class TestCacheKeyValidation:
    """The cache-hit validation bypass: an invalid pattern must raise on the
    warm path exactly as it does on the cold path.

    numpy truncates floats on ``astype(int64)`` (``[0.9] -> [0]``), so before
    the fix a float pattern's cache key collided with the valid pattern it
    truncated to and was silently served that entry's answer.
    """

    def test_float_pattern_rejected_against_warm_cache(self, index):
        service = QueryService(index)
        valid = [0, 1, 0, 0]
        warmed = service.query(valid)
        # Both truncate to the warmed key ([0.9] -> [0], [-0.5] -> [0]):
        # before the fix these were silent cache hits with the wrong answer.
        for bad in ([0.9, 1, 0, 0], [-0.5, 1, 0, 0]):
            with pytest.raises(PatternError):
                service.query(bad)
        # The cached entry is untouched and still served for the real key.
        assert service.query(valid) is warmed
        stats = service.stats()
        assert stats["queries"] == 2  # failed requests never count
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_float_pattern_rejected_against_cold_cache(self, index):
        service = QueryService(index)
        with pytest.raises(PatternError):
            service.query([0.9, 1, 0, 0])
        assert service.stats()["queries"] == 0

    def test_out_of_range_code_rejected_cold_and_warm(self, index):
        service = QueryService(index)
        with pytest.raises(PatternError):
            service.query([9, 1, 0, 0])  # cold cache
        service.query([0, 1, 0, 0])
        with pytest.raises(PatternError):
            service.query([9, 1, 0, 0])  # warm cache
        stats = service.stats()
        assert stats["queries"] == 1 and stats["misses"] == 1

    def test_validate_rejects_what_execution_would(self, index):
        """Admission-time validation agrees with the execution paths."""
        from repro.errors import QueryError

        service = QueryService(index)
        returned = service.validate([0, 1, 0, 0])
        assert isinstance(returned, Query)
        for bad in ([0.9, 1, 0, 0], [9, 1, 0, 0], [0], ""):
            with pytest.raises(PatternError):
                service.validate(bad)
        with pytest.raises(QueryError, match="looser than the index"):
            service.validate(Query([0, 1, 0, 0], z=99.0))
        with pytest.raises(QueryError, match="looser than the index"):
            service.validate(Query([0, 1, 0, 0], mode="count", zs=(2.0, 99.0)))
        # A validated query executes without re-raising.
        assert service.query(returned).positions == index.locate([0, 1, 0, 0])


class TestProvenance:
    """Per-request cache provenance (a global hit-counter delta misattributes
    hits as soon as two requests are in flight)."""

    def test_query_many_reports_per_request_origins(self, index):
        service = QueryService(index)
        one, two = [0, 1, 0, 0], [1, 0, 1, 1]
        results, origins = service.query_many(
            [one, two, one, one], provenance=True
        )
        assert origins == ["miss", "miss", "dedup", "dedup"]
        assert results[0] is results[2] is results[3]
        results, origins = service.query_many([one, two], provenance=True)
        assert origins == ["cache", "cache"]

    def test_origins_with_cache_disabled(self, index):
        service = QueryService(index, cache_enabled=False)
        one = [0, 1, 0, 0]
        _, origins = service.query_many([one, one], provenance=True)
        assert origins == ["miss", "dedup"]
        # Nothing was cached: a later request misses again.
        _, origins = service.query_many([one], provenance=True)
        assert origins == ["miss"]

    def test_provenance_matches_counter_movement(self, index):
        service = QueryService(index)
        patterns = [[0, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1]]
        _, origins = service.query_many(patterns, provenance=True)
        stats = service.stats()
        assert origins.count("miss") == stats["misses"]
        assert origins.count("dedup") == stats["dedup_hits"]
        assert origins.count("cache") == stats["cache_hits"]


class _BrokenStdout:
    """A stdout whose pipe vanishes after ``works_for`` written lines."""

    def __init__(self, works_for: int) -> None:
        self.lines: list[str] = []
        self.works_for = works_for

    def write(self, text: str) -> None:
        if len(self.lines) >= self.works_for:
            raise BrokenPipeError("downstream consumer is gone")
        self.lines.append(text)

    def flush(self) -> None:
        if len(self.lines) > self.works_for:  # pragma: no cover
            raise BrokenPipeError("downstream consumer is gone")


class TestServeBrokenPipe:
    """The serve loop must exit 0 when its consumer closes the pipe
    (``repro-uncertain serve | head -1``), not traceback."""

    def test_broken_pipe_mid_stream_exits_cleanly(
        self, monkeypatch, pwm_path
    ):
        stdout = _BrokenStdout(works_for=1)
        monkeypatch.setattr("sys.stdin", io.StringIO("AAAA\nAAAA\nAAAA\n"))
        monkeypatch.setattr("sys.stdout", stdout)
        exit_code = cli_main(["serve", *build_args(pwm_path)])
        assert exit_code == 0
        # Exactly the delivered response; no stats line into a dead pipe.
        assert len(stdout.lines) == 1
        assert json.loads(stdout.lines[0])["positions"] == [0]

    def test_stdout_closed_before_first_response(self, monkeypatch, pwm_path):
        closed = io.StringIO()
        closed.close()  # writes raise ValueError("I/O operation on closed file")
        monkeypatch.setattr("sys.stdin", io.StringIO("AAAA\n"))
        monkeypatch.setattr("sys.stdout", closed)
        assert cli_main(["serve", *build_args(pwm_path)]) == 0


class TestWarm:
    def test_warm_prefills_most_frequent_patterns(self, index):
        service = QueryService(index, cache_size=2)
        log = [
            [0, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1],
            [0, 0, 1, 0], [0, 1, 0, 0],
        ]
        report = service.warm(log)
        assert report == {"warmed": 2, "skipped": 0, "patterns_seen": 5}
        after_warm = service.stats()
        # The first post-warm wave of the two most frequent patterns is all
        # cache hits (frequency ranks first, first appearance breaks ties).
        service.query([0, 1, 0, 0])
        service.query([1, 0, 1, 1])
        stats = service.stats()
        assert stats["hits"] - after_warm["hits"] == 2
        assert stats["misses"] == after_warm["misses"]

    def test_warm_skips_invalid_patterns(self, index):
        service = QueryService(index, cache_size=8)
        report = service.warm([[0, 1, 0, 0], [9, 9, 9, 9], [0]])
        assert report["warmed"] == 1
        assert report["skipped"] == 2
        assert report["patterns_seen"] == 3

    def test_warm_top_caps_below_capacity(self, index):
        service = QueryService(index, cache_size=100)
        report = service.warm([[0, 1, 0, 0], [1, 0, 1, 1]], top=1)
        assert report["warmed"] == 1

    def test_warm_with_cache_disabled_is_a_noop(self, index):
        service = QueryService(index, cache_enabled=False)
        report = service.warm([[0, 1, 0, 0]])
        assert report["warmed"] == 0
        assert service.stats()["queries"] == 0


class TestAdoptIndex:
    def _updated_clone(self, source, updates):
        from repro.core.weighted_string import WeightedString

        # A genuinely independent source: apply_updates on the clone must
        # not leak into the module-scoped index fixture.
        private = WeightedString(source.matrix.copy(), source.alphabet)
        clone = build_index(private, Z, kind="MWSA", ell=ELL)
        report = clone.apply_updates(updates)
        return clone, report.positions

    def test_adopt_invalidates_exactly_and_swaps_answers(self, index, source):
        service = QueryService(index)
        distant = [0, 1, 0, 0]
        # Prime the cache from both ends of the string: one pattern's window
        # covers the updated position, one cannot be affected.
        near_codes = index.source.matrix[:ELL].argmax(axis=1).tolist()
        service.query(near_codes)
        service.query(distant)
        updates = [(1, {"A": 0.55, "B": 0.45})]
        clone, positions = self._updated_clone(source, updates)
        report = service.adopt_index(clone, positions=positions, generation=7)
        assert report["service_generation"] == 7
        assert service.generation == 7
        assert report["invalidated_entries"] + report["surviving_entries"] == 2
        # Served answers now come from the adopted index.
        assert service.query(near_codes).positions == clone.locate(near_codes)
        assert service.query(distant).positions == clone.locate(distant)
        assert service.index is clone

    def test_adopt_without_positions_clears_everything(self, index, source):
        service = QueryService(index)
        service.query([0, 1, 0, 0])
        service.query([1, 0, 1, 1])
        from repro.core.weighted_string import WeightedString

        private = WeightedString(source.matrix.copy(), source.alphabet)
        clone = build_index(private, Z, kind="MWSA", ell=ELL)
        report = service.adopt_index(clone)
        assert report["invalidated_entries"] == 2
        assert report["surviving_entries"] == 0
        assert service.stats()["entries"] == 0
        # Generation advances by one when the supervisor did not pin it.
        assert service.generation == 1

    def test_adopt_keeps_unaffected_entries_hot(self, index, source):
        service = QueryService(index)
        distant = [0, 1, 0, 0]
        service.query(distant)
        updates = [(1, {"A": 0.55, "B": 0.45})]
        clone, positions = self._updated_clone(source, updates)
        # The pattern's occurrences cannot overlap position 1 only if its
        # probed window is unchanged; either way the contract holds: a hit
        # after adoption returns the adopted index's answer.
        service.adopt_index(clone, positions=positions)
        hits_before = service.stats()["hits"]
        result = service.query(distant)
        assert result.positions == clone.locate(distant)
        if service.stats()["hits"] > hits_before:
            # survived: the probed windows were bit-identical
            assert result.positions == index.locate(distant)
