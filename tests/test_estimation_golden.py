"""Golden fixtures pin the z-estimation bit for bit.

``tests/fixtures/estimation/*.npz`` were written by ``generate.py`` beside
them from seeded inputs stored in each file.  For every run (``z``,
checkpoint cadence ``K``) a fresh :func:`build_z_estimation` must reproduce
the stored strings, property ends and every checkpoint exactly, and each
stored update wave must resume — from the *stored* previous estimation,
as an index loaded from an older store would — to the stored post-update
estimation, with the same replay report; a fresh build of the mutated
string must give that estimation too.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import repro.core.estimation as estimation_module
from repro.core.alphabet import Alphabet
from repro.core.estimation import (
    EstimationCheckpoint,
    ZEstimation,
    build_z_estimation,
    resume_z_estimation,
)
from repro.core.properties import GroupTreeArrays
from repro.core.weighted_string import WeightedString

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "estimation"
CASES = sorted(path.stem for path in FIXTURES.glob("*.npz"))
TREE_FIELDS = tuple(GroupTreeArrays.__dataclass_fields__)
REPLAY_MODES = {0: "full", 1: "checkpoint"}


def alphabet_of(sigma: int) -> Alphabet:
    """The fixtures' alphabet: letters ``c0 .. c{σ-1}`` in code order."""
    return Alphabet([f"c{code}" for code in range(sigma)])


@dataclass
class GoldenStep:
    positions: np.ndarray  # the wave's updated positions (empty for step 0)
    rows: np.ndarray  # their new rows
    estimation: ZEstimation  # the stored estimation after the wave
    replay: np.ndarray  # [mode, replayed_from, converged_at, replayed_positions]


@dataclass
class GoldenRun:
    z: float
    every: int
    steps: list[GoldenStep]


@dataclass
class GoldenCase:
    name: str
    matrix: np.ndarray
    runs: list[GoldenRun]

    @property
    def alphabet(self) -> Alphabet:
        return alphabet_of(self.matrix.shape[1])

    @property
    def source(self) -> WeightedString:
        return WeightedString(self.matrix, self.alphabet)


def _split(values: np.ndarray, bounds: np.ndarray) -> list[np.ndarray]:
    return [values[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)]


def load_case(name: str) -> GoldenCase:
    with np.load(FIXTURES / f"{name}.npz") as stored:
        data = {key: stored[key] for key in stored.files}
    matrix = data["matrix"]
    alphabet = alphabet_of(matrix.shape[1])
    runs = []
    for r in range(int(data["runs"])):
        prefix = f"r{r}_"
        z = float(data[prefix + "z"])
        trees = zip(
            *(
                _split(data[f"{prefix}cp_{field}"], data[f"{prefix}cp_{field}_at"])
                for field in TREE_FIELDS
            )
        )
        checkpoints = [
            EstimationCheckpoint(
                position=int(position),
                alive_from=alive,
                tree=GroupTreeArrays(**dict(zip(TREE_FIELDS, fields))),
            )
            for position, alive, fields in zip(
                data[prefix + "cp_position"], data[prefix + "cp_alive"], trees
            )
        ]
        cp_at = data[prefix + "cp_at"]
        wave_at = data[prefix + "wave_at"]
        steps = [
            GoldenStep(
                positions=data[prefix + "positions"][wave_at[s] : wave_at[s + 1]],
                rows=data[prefix + "rows"][wave_at[s] : wave_at[s + 1]],
                estimation=ZEstimation(
                    data[prefix + "strings"][s],
                    data[prefix + "ends"][s],
                    z,
                    alphabet,
                    checkpoints[cp_at[s] : cp_at[s + 1]],
                ),
                replay=data[prefix + "replay"][s],
            )
            for s in range(len(data[prefix + "strings"]))
        ]
        runs.append(GoldenRun(z, int(data[prefix + "every"]), steps))
    return GoldenCase(name, matrix, runs)


def assert_same_estimation(actual: ZEstimation, expected: ZEstimation, label) -> None:
    """Strings, ends and every checkpoint identical, dtypes included."""
    assert actual.strings.dtype == expected.strings.dtype, label
    assert actual.ends.dtype == expected.ends.dtype, label
    assert np.array_equal(actual.strings, expected.strings), label
    assert np.array_equal(actual.ends, expected.ends), label
    assert [c.position for c in actual.checkpoints] == [
        c.position for c in expected.checkpoints
    ], label
    for mine, theirs in zip(actual.checkpoints, expected.checkpoints):
        assert mine.matches(theirs), (label, mine.position)


def replay_report(info: dict) -> list[int]:
    fields = ("replayed_from", "converged_at", "replayed_positions")
    mode = {name: code for code, name in REPLAY_MODES.items()}[info["estimation_replay"]]
    return [mode] + [-1 if info.get(key) is None else int(info[key]) for key in fields]


def assert_matches_golden(name: str, monkeypatch) -> GoldenCase:
    """Build and resume every run of one case against its stored arrays."""
    case = load_case(name)
    for run in case.runs:
        # Resume's full-replay fallback snapshots at the module default.
        monkeypatch.setattr(estimation_module, "DEFAULT_CHECKPOINT_EVERY", run.every)
        matrix = case.matrix.copy()
        fresh = build_z_estimation(case.source, run.z, checkpoint_every=run.every)
        assert_same_estimation(fresh, run.steps[0].estimation, (name, run.z, 0))
        for number, step in enumerate(run.steps[1:], start=1):
            label = (name, run.z, number, step.positions.tolist())
            matrix = matrix.copy()
            matrix[step.positions] = step.rows
            source = WeightedString(matrix, case.alphabet)
            previous = run.steps[number - 1].estimation
            resumed, info = resume_z_estimation(previous, source, run.z, step.positions)
            assert_same_estimation(resumed, step.estimation, label)
            assert replay_report(info) == step.replay.tolist(), label
            fresh = build_z_estimation(source, run.z, checkpoint_every=run.every)
            assert_same_estimation(fresh, step.estimation, label)
    return case


@pytest.mark.parametrize("name", CASES)
def test_estimation_matches_golden_fixture(name, monkeypatch):
    assert_matches_golden(name, monkeypatch)
