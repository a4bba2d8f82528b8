"""Micro-scale runs of the per-figure experiment functions.

These exercise the full benchmark code paths (dataset loading, whole
builds, sweeps, series rendering) at a very small scale and check the
paper's qualitative claims on the resulting rows.
"""

import math

import pytest

from repro.bench.experiments import (
    ablation,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    servemix,
    shardscale,
)
from repro.bench.harness import BenchScale, build_index_suite, sweep_rows

ALL_KINDS = ("WST", "WSA", "MWST", "MWSA", "MWST-G", "MWSA-G", "MWST-SE")


@pytest.fixture(scope="module")
def micro_scale():
    return BenchScale(
        name="micro",
        dataset_lengths={"SARS": 300, "EFM": 300, "HUMAN": 300, "RSSI": 150},
        ell_values=(8,),
        z_values={name: (2, 4) for name in ("SARS", "EFM", "HUMAN", "RSSI")},
        default_ell=8,
        pattern_count=2,
        rssi_sigma_values=(16, 91),
        rssi_length_factors=(1, 2),
        shard_length=600,
        shard_counts=(1, 3),
        shard_workers=(1,),
        serve_request_count=200,
        serve_unique_patterns=20,
    )


@pytest.fixture(scope="module")
def fig08_result(micro_scale):
    return fig08(micro_scale)


@pytest.fixture(scope="module")
def fig13_rows(micro_scale):
    return fig13(micro_scale).rows


@pytest.fixture(scope="module")
def fig14_rows(micro_scale):
    return fig14(micro_scale).rows


def _by_index(rows, dataset=None):
    grouped = {}
    for row in rows:
        if dataset is not None and row["dataset"] != dataset:
            continue
        grouped.setdefault(row["index"], []).append(row)
    return grouped


def _points(rows, *columns):
    """``{column values: {index: row}}``, one entry per sweep point."""
    points = {}
    for row in rows:
        key = tuple(row[column] for column in columns)
        points.setdefault(key, {})[row["index"]] = row
    return points


def _assert_grows_with_z(rows, column, *, strictly):
    for dataset in {row["dataset"] for row in rows}:
        for kind, series in _by_index(rows, dataset=dataset).items():
            values = [row[column] for row in sorted(series, key=lambda row: row["z"])]
            assert values == sorted(values), (dataset, kind, values)
            assert not strictly or values[-1] > values[0], (dataset, kind, values)


class TestIndexSizeExperiments:
    def test_fig06_minimizer_index_smaller_than_baseline(self, micro_scale):
        for point in _points(fig06(micro_scale).rows, "dataset", "ell", "z").values():
            assert point["MWSA"]["index_size_mb"] < point["WSA"]["index_size_mb"]

    def test_fig07_index_size_grows_with_z(self, micro_scale):
        _assert_grows_with_z(fig07(micro_scale).rows, "index_size_mb", strictly=False)


class TestConstructionSpaceExperiments:
    def test_fig08_baseline_dominates_minimizer_constructions(self, fig08_result):
        grouped = _by_index(fig08_result.rows, dataset="EFM")
        assert min(row["construction_space_mb"] for row in grouped["WST"]) > max(
            row["construction_space_mb"] for row in grouped["MWSA"]
        )
        assert "construction space" in fig08_result.text

    def test_fig08_array_construction_needs_less_space_than_tree(self, fig08_result):
        for point in _points(fig08_result.rows, "dataset", "ell", "z").values():
            assert point["WSA"]["construction_space_mb"] < point["WST"]["construction_space_mb"]

    def test_fig09_construction_space_grows_with_z(self, micro_scale):
        _assert_grows_with_z(fig09(micro_scale).rows, "construction_space_mb", strictly=True)

    def test_fig13_space_efficient_construction_is_smallest(self, fig13_rows):
        grouped = _by_index(fig13_rows, dataset="EFM")
        largest_se = max(row["construction_space_mb"] for row in grouped["MWST-SE"])
        smallest_wst = min(row["construction_space_mb"] for row in grouped["WST"])
        assert largest_se < smallest_wst

    def test_fig13_se_needs_less_construction_space_than_mwsa(self, micro_scale, fig13_rows):
        # Checked at the default z, over the ell sweep: at z=2 the DFS's fixed
        # cost still exceeds MWSA's on a 300-position input.
        for (dataset, _, z), point in _points(fig13_rows, "dataset", "ell", "z").items():
            if z == micro_scale.default_z(dataset):
                se, explicit = point["MWST-SE"], point["MWSA"]
                assert se["construction_space_mb"] < explicit["construction_space_mb"]


class TestQueryTimeExperiments:
    @pytest.mark.parametrize("experiment", [fig10, fig11], ids=["fig10", "fig11"])
    def test_every_row_times_its_queries(self, micro_scale, experiment):
        rows = experiment(micro_scale).rows
        assert {"MWSA", "MWST"} <= {row["index"] for row in rows}
        for row in rows:
            assert math.isfinite(row["avg_query_us"]) and row["avg_query_us"] > 0, row


class TestConstructionTimeExperiments:
    def test_fig12_reports_both_sweeps(self, micro_scale):
        result = fig12(micro_scale)
        assert {row["z"] for row in result.rows} >= {2, 4}
        assert all(row["construction_seconds"] >= 0.0 for row in result.rows)
        assert "vs ell" in result.text and "vs z" in result.text


class TestRSSIExperiments:
    def test_fig14_covers_all_four_sweeps(self, fig14_rows):
        sweeps = {row["sweep"] for row in fig14_rows}
        assert sweeps == {"ell", "z", "sigma", "n"}
        kinds = {row["index"] for row in fig14_rows}
        assert kinds == {"WSA", "MWST-SE"}

    def test_fig14_length_sweep_scales_linearly(self, fig14_rows):
        wsa_by_n = {
            row["n"]: row["construction_space_mb"]
            for row in fig14_rows
            if row["sweep"] == "n" and row["index"] == "WSA"
        }
        sizes = [wsa_by_n[n] for n in sorted(wsa_by_n)]
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_fig14_se_beats_wsa_on_rssi(self, fig14_rows):
        for point in _points(fig14_rows, "sweep", "ell", "z", "sigma", "n").values():
            assert point["MWST-SE"]["construction_space_mb"] < point["WSA"]["construction_space_mb"]


class TestAblation:
    def test_orders_answer_queries_identically(self, micro_scale):
        rows = ablation(micro_scale).rows
        assert len({row["k"] for row in rows}) == 3
        assert sorted(row["order"] for row in rows) == ["lexicographic"] * 3 + ["random"] * 3
        assert all(row["matches_random_order"] for row in rows)


class TestWholeBuilds:
    def test_rows_carry_the_stages_of_their_own_build(self, micro_scale):
        source = micro_scale.dataset("EFM")
        rows = sweep_rows(build_index_suite(source, 4, 8, ALL_KINDS), {"dataset": "EFM"})
        assert [row["index"] for row in rows] == list(ALL_KINDS)
        for row in rows:
            stages = [
                seconds
                for column, seconds in row.items()
                if column.endswith("_seconds") and column != "construction_seconds"
            ]
            assert stages and sum(stages) <= row["construction_seconds"], row
            if row["index"] == "MWST-SE":
                assert "estimation_seconds" not in row  # it never materialises one
            else:
                assert row["estimation_seconds"] > 0, row


class TestServingExperiments:
    def test_shardscale_sharded_and_reloaded_answer_like_single(self, micro_scale):
        rows = shardscale(micro_scale).rows
        builds = [row for row in rows if "shards" in row]
        assert [row["shards"] for row in builds] == [1, 3]
        assert all(row["matches_single"] for row in builds)
        # One worker never engages the four-core speedup check.
        assert all(row["faster_than_single"] is None for row in builds)
        (store,) = [row for row in rows if "store_bytes" in row]
        assert store["loaded_matches_built"] is True

    def test_servemix_cached_answers_equal_uncached(self, micro_scale):
        off, on = servemix(micro_scale).rows
        assert (off["cache"], on["cache"]) == ("off", "on")
        assert off["matches_uncached"] and on["matches_uncached"]
        assert on["hit_rate"] > 0
