"""Tests for the benchmark harness, the reports and the command-line interface."""

import json

import pytest

from repro.bench.harness import SCALES, BenchScale, build_index_suite, query_workload
from repro.bench.measure import measure_build, measure_query_time, timed
from repro.bench.report import format_series, format_table, pivot
from repro.cli import main as cli_main
from repro.datasets.registry import load_dataset
from repro.indexes import MinimizerWSA
from repro.io.pwm import write_pwm


@pytest.fixture(scope="module")
def tiny_source():
    return load_dataset("SARS", length=800)


class TestMeasure:
    def test_timed(self):
        result, seconds = timed(sum, [1, 2, 3])
        assert result == 6 and seconds >= 0.0

    def test_measure_build_records_stats(self, tiny_source):
        measurement = measure_build(
            lambda: MinimizerWSA.build(tiny_source, 8, 16), "MWSA", trace_memory=True
        )
        row = measurement.as_row()
        assert row["index"] == "MWSA"
        assert row["index_size_mb"] > 0
        assert row["construction_space_mb"] > 0
        assert row["tracemalloc_peak_mb"] > 0

    def test_measure_query_time(self, tiny_source):
        index = MinimizerWSA.build(tiny_source, 8, 16)
        patterns = query_workload(tiny_source, 8, 16, 3, seed=0)
        assert measure_query_time(index, patterns) > 0.0
        assert measure_query_time(index, []) == 0.0


class TestHarness:
    def test_scales_registered(self):
        assert {"tiny", "small", "paper"} <= set(SCALES)
        assert isinstance(SCALES["tiny"], BenchScale)

    def test_scale_accessors(self):
        scale = SCALES["tiny"]
        assert scale.default_z("EFM") in scale.zs("EFM")
        assert len(scale.dataset("RSSI")) == scale.dataset_lengths["RSSI"]

    def test_build_index_suite_shares_samples(self, tiny_source):
        measurements = build_index_suite(tiny_source, 8, 16, ("WSA", "MWSA", "MWST-SE"))
        assert set(measurements) == {"WSA", "MWSA", "MWST-SE"}
        sizes = {name: m.index_size_bytes for name, m in measurements.items()}
        assert sizes["MWSA"] < sizes["WSA"]
        # Each kind builds its own estimation; all of them sample the same.
        for pattern in query_workload(tiny_source, 8, 16, 3, seed=2):
            answers = {name: m.index.locate(pattern) for name, m in measurements.items()}
            assert answers["WSA"] == answers["MWSA"] == answers["MWST-SE"]

    def test_query_workload_lengths(self, tiny_source):
        patterns = query_workload(tiny_source, 8, 16, 4, seed=1)
        assert len(patterns) == 4
        assert all(len(pattern) == 16 for pattern in patterns)


class TestReport:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.001}])
        assert "a" in text and "10" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_pivot(self):
        rows = [
            {"ell": 8, "index": "WSA", "mb": 2.0},
            {"ell": 8, "index": "MWSA", "mb": 1.0},
            {"ell": 16, "index": "WSA", "mb": 2.0},
        ]
        table = pivot(rows, "ell", "index", "mb")
        assert table[0] == {"ell": 8, "WSA": 2.0, "MWSA": 1.0}
        assert table[1]["MWSA"] is None

    def test_format_series_contains_title(self):
        rows = [{"ell": 8, "index": "WSA", "mb": 2.0}]
        assert "Fig" in format_series("Fig X", rows, "ell", "index", "mb")


class TestExperiments:
    def test_table2_runs_at_micro_scale(self):
        from repro.bench.experiments import table2

        scale = BenchScale(
            name="micro",
            dataset_lengths={"SARS": 300, "EFM": 300, "HUMAN": 300, "RSSI": 200},
            ell_values=(4, 8),
            z_values={name: (2, 4) for name in ("SARS", "EFM", "HUMAN", "RSSI")},
            default_ell=8,
            pattern_count=2,
        )
        result = table2(scale)
        assert len(result.rows) == 4
        assert "Table 2" in result.text

    def test_fig06_runs_at_micro_scale(self):
        from repro.bench.experiments import fig06

        scale = BenchScale(
            name="micro",
            dataset_lengths={"SARS": 300, "EFM": 300, "HUMAN": 300, "RSSI": 200},
            ell_values=(8,),
            z_values={name: (2, 4) for name in ("SARS", "EFM", "HUMAN", "RSSI")},
            default_ell=8,
            pattern_count=2,
        )
        result = fig06(scale)
        assert result.rows
        wsa = [row for row in result.rows if row["index"] == "WSA"]
        mwsa = [row for row in result.rows if row["index"] == "MWSA"]
        assert wsa and mwsa
        assert all(row["index_size_mb"] > 0 for row in result.rows)


class TestCli:
    def test_info_named_dataset(self, capsys):
        assert cli_main(["info", "--dataset", "SARS", "--length", "400"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["length"] == 400

    def test_build_from_pwm(self, tmp_path, capsys, paper_example):
        path = tmp_path / "example.pwm"
        write_pwm(path, paper_example)
        assert cli_main(["build", "--pwm", str(path), "--z", "4", "--kind", "MWSA", "--ell", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "MWSA"
        assert payload["index_size_bytes"] > 0

    def test_build_json_reports_estimation_stage(self, capsys):
        assert cli_main(
            ["build", "--dataset", "RSSI", "--length", "300", "--z", "4",
             "--kind", "MWSA", "--ell", "8", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.build.v1"
        assert payload["build"]["stages"]["estimation"] > 0

    def test_query_command(self, tmp_path, capsys, paper_example):
        path = tmp_path / "example.pwm"
        write_pwm(path, paper_example)
        assert (
            cli_main(
                ["query", "--pwm", str(path), "--z", "4", "--kind", "MWSA", "--ell", "4", "AAAA"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["occurrences"]["AAAA"] == [0]

    def test_error_reported_cleanly(self, tmp_path, capsys, paper_example):
        path = tmp_path / "example.pwm"
        write_pwm(path, paper_example)
        # Minimizer index without --ell is a user error, not a traceback.
        assert cli_main(["build", "--pwm", str(path), "--z", "4", "--kind", "MWSA"]) == 1
        assert "error" in capsys.readouterr().err

    def test_info_requires_a_source(self, capsys):
        assert cli_main(["info"]) == 1

    def test_query_batch_positional_patterns(self, tmp_path, capsys, paper_example):
        path = tmp_path / "example.pwm"
        write_pwm(path, paper_example)
        assert (
            cli_main(
                ["query-batch", "--pwm", str(path), "--z", "4", "--kind", "MWSA",
                 "--ell", "4", "AAAA", "AAAA", "ABAA"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["patterns"] == 3
        assert payload["unique_patterns"] == 2
        assert payload["occurrences"]["AAAA"] == [0]
        assert payload["patterns_per_second"] > 0

    def test_query_batch_patterns_file(self, tmp_path, capsys, paper_example):
        path = tmp_path / "example.pwm"
        write_pwm(path, paper_example)
        patterns_file = tmp_path / "patterns.txt"
        patterns_file.write_text("AAAA\nABAA\n\n")
        assert (
            cli_main(
                ["query-batch", "--pwm", str(path), "--z", "4", "--kind", "MWSA",
                 "--ell", "4", "--patterns-file", str(patterns_file),
                 "--no-occurrences"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["patterns"] == 2
        assert "occurrences" not in payload

    def test_query_batch_without_patterns_fails(self, tmp_path, capsys, paper_example):
        path = tmp_path / "example.pwm"
        write_pwm(path, paper_example)
        assert (
            cli_main(
                ["query-batch", "--pwm", str(path), "--z", "4", "--kind", "MWSA",
                 "--ell", "4"]
            )
            == 1
        )
        assert "no patterns" in capsys.readouterr().err


class TestCliStore:
    def _write_pwm(self, tmp_path, source):
        path = tmp_path / "example.pwm"
        write_pwm(path, source)
        return path

    def test_build_saves_to_store(self, tmp_path, capsys, paper_example):
        pwm = self._write_pwm(tmp_path, paper_example)
        store = tmp_path / "example.idx"
        assert (
            cli_main(
                ["build", "--pwm", str(pwm), "--z", "4", "--kind", "MWSA",
                 "--ell", "4", "--store", str(store)]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["store"] == str(store)
        assert store.stat().st_size > 0

    def test_query_loads_from_store(self, tmp_path, capsys, paper_example):
        pwm = self._write_pwm(tmp_path, paper_example)
        store = tmp_path / "example.idx"
        assert (
            cli_main(
                ["build", "--pwm", str(pwm), "--z", "4", "--kind", "MWSA",
                 "--ell", "4", "--store", str(store)]
            )
            == 0
        )
        capsys.readouterr()
        assert cli_main(["query", "--store", str(store), "AAAA"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["occurrences"]["AAAA"] == [0]
        assert payload["index"]["loaded_from_store"] is True

    def test_query_batch_loads_sharded_store(self, tmp_path, capsys, paper_example):
        pwm = self._write_pwm(tmp_path, paper_example)
        store = tmp_path / "sharded.idx"
        assert (
            cli_main(
                ["build", "--pwm", str(pwm), "--z", "4", "--kind", "MWSA",
                 "--ell", "4", "--shards", "2", "--store", str(store)]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            cli_main(["query-batch", "--store", str(store), "AAAA", "ABAA"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["occurrences"]["AAAA"] == [0]
        assert payload["index"]["shards"] == 2

    def test_query_without_store_or_source_fails(self, capsys):
        assert cli_main(["query", "AAAA"]) == 1
        assert "either --pwm FILE or --dataset NAME" in capsys.readouterr().err

    def test_query_missing_store_reported_cleanly(self, tmp_path, capsys):
        assert cli_main(["query", "--store", str(tmp_path / "absent.idx"), "AAAA"]) == 1
        assert "error" in capsys.readouterr().err

    def test_store_conflicting_build_options_rejected(self, tmp_path, capsys, paper_example):
        pwm = self._write_pwm(tmp_path, paper_example)
        store = tmp_path / "example.idx"
        assert (
            cli_main(
                ["build", "--pwm", str(pwm), "--z", "4", "--kind", "MWSA",
                 "--ell", "4", "--store", str(store)]
            )
            == 0
        )
        capsys.readouterr()
        # A stored index fixes z; silently answering at the stored threshold
        # while the user asked for another would be wrong.
        assert cli_main(["query", "--store", str(store), "--z", "16", "AAAA"]) == 1
        assert "--z" in capsys.readouterr().err
