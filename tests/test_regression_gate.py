"""The update and serving bars of ``benchmarks/check_regression.py``.

Each committed snapshot must pass, and each bar must fail when its figure is
perturbed just past it (the construction bars are in
``test_construction_gate.py``).
"""

from __future__ import annotations

import copy
import importlib.util
import json

import pytest
from test_construction_gate import ROOT, gate, violations

UPDATE = json.loads((ROOT / "BENCH_update.json").read_text(encoding="utf-8"))
SERVING = json.loads((ROOT / "BENCH_http_serving.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "name,snapshot",
    [("construction", "BENCH_construction.json"), ("update", "BENCH_update.json"),
     ("serving", "BENCH_http_serving.json")],
)
def test_committed_snapshot_passes(name, snapshot, capsys):
    path = str(ROOT / snapshot)
    assert gate.main([name, "--snapshot", path]) == 0
    assert gate.main([name, "--snapshot", path, "--fresh", path]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("OK:")


class TestUpdateBars:
    def test_failed_bar_keeps_json_stdout_parseable(self, capsys):
        spec = importlib.util.spec_from_file_location(
            "bench_update_throughput", ROOT / "benchmarks" / "bench_update_throughput.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        status = bench.main([
            "--length", "600", "--shards", "2", "--updates", "1", "--patterns", "20",
            "--json", "--require-speedup", "1000",
        ])
        captured = capsys.readouterr()
        assert status == 1
        assert json.loads(captured.out)["schema"] == "repro.bench.update_throughput.v1"
        assert captured.err.startswith("FAIL: monolithic localized update")

    def test_snapshot_monolith_speedup_below_the_bar_fails(self):
        snapshot = dict(UPDATE, monolith_speedup=4.9)
        found = violations("update", snapshot)
        assert len(found) == 1 and found[0].startswith("snapshot monolith_speedup")

    @pytest.mark.parametrize("metric", ["monolith_speedup", "sharded_speedup"])
    def test_fresh_speedup_below_the_band_fails(self, metric):
        assert violations("update", UPDATE, dict(UPDATE, **{metric: UPDATE[metric] * 0.26})) == []
        found = violations("update", UPDATE, dict(UPDATE, **{metric: UPDATE[metric] * 0.24}))
        assert len(found) == 1 and found[0].startswith(f"fresh {metric}")


def top_batching_rows(report: dict) -> tuple[dict, dict]:
    top = max(row["concurrency"] for row in report["rows"])
    rows = {row["batching"]: row for row in report["rows"] if row["concurrency"] == top}
    return rows[False], rows[True]


class TestServingBars:
    def test_notes_name_every_waiver(self, capsys):
        assert gate.main(["serving", "--snapshot", str(ROOT / "BENCH_http_serving.json")]) == 0
        out = capsys.readouterr().out
        assert "note (snapshot): no durability section — verify gate skipped" in out
        assert "note (snapshot): scaling bar not enforced" in out

    def test_batching_speedup_below_the_bar_fails(self):
        snapshot = copy.deepcopy(SERVING)
        off, on = top_batching_rows(snapshot)
        on["requests_per_second"] = 1.9 * off["requests_per_second"]
        found = violations("serving", snapshot)
        assert len(found) == 1 and "micro-batching speedup" in found[0]
        snapshot["workload"]["smoke"] = True  # waived at smoke scale
        assert violations("serving", snapshot) == []

    def test_worker_private_fraction_above_the_ceiling_fails(self):
        snapshot = copy.deepcopy(SERVING)
        pid = sorted(snapshot["cluster_gates"]["private_fractions"])[0]
        snapshot["cluster_gates"]["private_fractions"][pid] = 0.16
        found = violations("serving", snapshot)
        assert len(found) == 1 and f"worker pid {pid}" in found[0]

    def test_verify_overhead_above_the_ceiling_fails(self):
        snapshot = copy.deepcopy(SERVING)
        snapshot["durability"] = {"verify_overhead_ratio": 0.09, "store_bytes": 1 << 20}
        assert violations("serving", snapshot) == []
        snapshot["durability"]["verify_overhead_ratio"] = 0.11
        found = violations("serving", snapshot)
        assert len(found) == 1 and "verify overhead" in found[0]
        snapshot["workload"]["smoke"] = True  # waived at smoke scale
        assert violations("serving", snapshot) == []

    def test_scaling_below_the_bar_fails_only_when_enforced(self):
        snapshot = copy.deepcopy(SERVING)
        snapshot["cluster_gates"]["speedup"] = 1.6
        assert violations("serving", snapshot) == []
        snapshot["cluster_gates"]["scaling_enforced"] = True
        found = violations("serving", snapshot)
        assert len(found) == 1 and "multi-worker scaling" in found[0]

    def test_row_with_errors_fails(self):
        snapshot = copy.deepcopy(SERVING)
        snapshot["cluster_rows"][0]["errors"] = 3
        found = violations("serving", snapshot)
        assert len(found) == 1 and found[0].startswith("snapshot errors")

    def test_fresh_throughput_below_the_band_fails(self):
        fresh = copy.deepcopy(SERVING)
        fresh["rows"][0]["requests_per_second"] *= 0.26
        assert violations("serving", SERVING, fresh) == []
        fresh["rows"][0]["requests_per_second"] = 0.24 * SERVING["rows"][0]["requests_per_second"]
        found = violations("serving", SERVING, fresh)
        assert len(found) == 1 and found[0].startswith("fresh throughput")
