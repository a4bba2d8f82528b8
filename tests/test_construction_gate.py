"""The construction regression gate against the committed snapshot.

``benchmarks/check_regression.py construction`` compares every row's build
time, divided by the report's calibration loop, with the snapshot
``BENCH_construction.json`` (4x slack) and holds every reload speedup to an
absolute 2x floor.  The snapshot must pass against itself, and slowing any
single kind 5x must fail the gate on exactly that kind.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_PATH = ROOT / "BENCH_construction.json"
SNAPSHOT = json.loads(SNAPSHOT_PATH.read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location(
    "check_regression", ROOT / "benchmarks" / "check_regression.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

KINDS = [row["kind"] for row in SNAPSHOT["rows"]]


def violations(name: str, snapshot: dict, fresh: dict | None = None) -> list[str]:
    """The violation messages of one gate run."""
    outcome = gate.Gate()
    gate.GATES[name](outcome, snapshot, fresh)
    return outcome.violations


def test_every_variant_is_gated():
    assert {"WST", "WSA", "MWST", "MWSA", "MWST-G", "MWSA-G", "MWST-SE"} < set(KINDS)
    assert any(kind.startswith("SHARDED[") for kind in KINDS)
    assert SNAPSHOT["calibration"]["seconds"] > 0
    for row in SNAPSHOT["rows"]:
        assert row["normalized_build"] == pytest.approx(
            row["build_seconds"] / SNAPSHOT["calibration"]["seconds"]
        )


def test_snapshot_passes_against_itself(capsys):
    assert violations("construction", SNAPSHOT, SNAPSHOT) == []
    path = str(SNAPSHOT_PATH)
    assert gate.main(["construction", "--snapshot", path, "--fresh", path]) == 0
    assert capsys.readouterr().out.startswith("OK:")


@pytest.mark.parametrize("kind", KINDS)
def test_one_kind_slowed_five_times_fails(kind):
    fresh = copy.deepcopy(SNAPSHOT)
    row = next(row for row in fresh["rows"] if row["kind"] == kind)
    row["build_seconds"] *= 5
    row["normalized_build"] *= 5
    found = violations("construction", SNAPSHOT, fresh)
    assert len(found) == 1
    assert found[0].startswith(f"rows/{kind}/normalized_build")


def test_slowdown_within_the_slack_passes():
    fresh = copy.deepcopy(SNAPSHOT)
    for row in fresh["rows"]:
        row["normalized_build"] *= 3.9
    assert violations("construction", SNAPSHOT, fresh) == []


def test_reload_below_the_floor_fails():
    fresh = copy.deepcopy(SNAPSHOT)
    fresh["reload_rows"][0]["reload_speedup"] = 1.5
    found = violations("construction", SNAPSHOT, fresh)
    assert len(found) == 1 and "reload_speedup" in found[0]


def test_other_workload_fails():
    fresh = copy.deepcopy(SNAPSHOT)
    fresh["length"] = 4000
    found = violations("construction", SNAPSHOT, fresh)
    assert any(message.startswith("workload length") for message in found)
