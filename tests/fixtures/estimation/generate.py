"""Generate the golden z-estimation fixtures of ``tests/test_estimation_golden.py``.

Each ``<case>.npz`` beside this script is one seeded weighted string (its
probability matrix is stored, so nothing depends on ``repro.datasets``) with
one or more *runs*.  A run fixes ``z`` and the checkpoint cadence ``K`` and
records, bit for bit, the estimation a fresh build gives (step 0) and then,
for every update wave, the rows it writes and the estimation
``resume_z_estimation`` returns on the mutated string (steps 1, 2, ...):
strings, property ends, every checkpoint (position, alive-from levels and
the flattened group tree) and the replay report.

Run from the repository root to regenerate (the files are only ever
regenerated on purpose — the test pins the estimation to them)::

    PYTHONPATH=src python tests/fixtures/estimation/generate.py

Key layout inside a file: ``matrix`` and ``runs``; per run ``r`` the prefix
``r{r}_`` with ``z``, ``every`` and, stacked over the steps, ``strings`` and
``ends`` (steps × ⌊z⌋ × n) and ``replay`` (steps × ``[mode, replayed_from,
converged_at, replayed_positions]``, mode 0 = full, 1 = checkpoint, -1 =
absent, i.e. step 0).  The waves are ``positions``/``rows`` split by
``wave_at``; the checkpoints of all steps are ``cp_position``/``cp_alive``
split by ``cp_at``, and each group-tree field ``cp_<field>`` is split per
checkpoint by ``cp_<field>_at``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import repro.core.estimation as estimation_module
from repro.core.alphabet import Alphabet
from repro.core.estimation import build_z_estimation, resume_z_estimation
from repro.core.weighted_string import WeightedString

HERE = Path(__file__).resolve().parent

#: Group-tree fields of a checkpoint, in ``GroupTreeArrays`` order.
TREE_FIELDS = (
    "parent",
    "seg_start",
    "seg_lo",
    "seg_hi",
    "seg_weight",
    "mem_start",
    "mem_level",
    "mem_token",
)


# --------------------------------------------------------------------------- #
# inputs                                                                       #
# --------------------------------------------------------------------------- #
def sparse_rows(rng, n: int, sigma: int, uncertain: float, letters: tuple[int, int]):
    """Rows with a few positive letters (RSSI-like) or one certain letter."""
    matrix = np.zeros((n, sigma))
    for position in range(n):
        if rng.random() < uncertain:
            count = int(rng.integers(letters[0], letters[1] + 1))
            codes = rng.choice(sigma, size=count, replace=False)
            matrix[position, codes] = rng.random(count) + 0.05
        else:
            matrix[position, int(rng.integers(sigma))] = 1.0
    return matrix / matrix.sum(axis=1)[:, None]


def skewed_rows(rng, n: int, sigma: int):
    """One dominant letter per row over a uniform floor; ~35% certain rows."""
    matrix = np.full((n, sigma), 0.08)
    matrix[np.arange(n), rng.integers(0, sigma, n)] = 1.0
    certain = rng.random(n) < 0.35
    matrix[certain] = 0.0
    matrix[certain, rng.integers(0, sigma, int(certain.sum()))] = 1.0
    return matrix / matrix.sum(axis=1)[:, None]


def tied_rows():
    rows = [[0.5, 0.5, 0.0, 0.0]] * 6 + [[1.0, 0.0, 0.0, 0.0]] + [[0.25] * 4] * 4
    return np.asarray(rows)


def floor_boundary_rows():
    """z·p exactly on (0.5/0.25 rows) and a hair below (1/3 rows) integers."""
    rows = [
        [0.5, 0.5, 0.0],
        [0.5, 0.25, 0.25],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [0.75, 0.25, 0.0],
        [1.0, 0.0, 0.0],
        [2.0 / 3.0, 1.0 / 3.0, 0.0],
        [0.125, 0.875, 0.0],
    ] * 3
    matrix = np.asarray(rows)
    return matrix / matrix.sum(axis=1)[:, None]


def decimal_rows(rng, n: int):
    """Rows of short decimals, whose products land a hair off integers.

    ``z·p`` for such rows is often one ulp below a whole number, so these
    quotas exist only through the rounding tolerance of the floor.
    """
    pool = [
        [0.1, 0.9, 0.0], [0.3, 0.7, 0.0], [0.2, 0.8, 0.0], [0.6, 0.4, 0.0],
        [0.7, 0.2, 0.1], [1 / 3, 1 / 3, 1 / 3], [0.15, 0.85, 0.0], [0.9, 0.1, 0.0],
        [0.4, 0.3, 0.3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.05, 0.95, 0.0],
        [2 / 3, 1 / 3, 0.0], [0.35, 0.65, 0.0],
    ]
    rows = [pool[i] for i in rng.integers(len(pool), size=n)]
    matrix = np.asarray([np.asarray(row)[rng.permutation(3)] for row in rows])
    return matrix / matrix.sum(axis=1)[:, None]


def certain_rows(text: str, letters: str):
    matrix = np.zeros((len(text), len(letters)))
    matrix[np.arange(len(text)), [letters.index(letter) for letter in text]] = 1.0
    return matrix


def update_row(rng, matrix):
    """A replacement row: certain, copied from the string, or fresh weights.

    Fresh weights go to at most four letters, so wide alphabets keep the
    sparse rows real inputs have.
    """
    n, sigma = matrix.shape
    kind = int(rng.integers(3))
    if kind == 1:
        return matrix[int(rng.integers(n))].copy()
    row = np.zeros(sigma)
    if kind == 0:
        row[int(rng.integers(sigma))] = 1.0
    else:
        codes = rng.choice(sigma, size=min(sigma, 4), replace=False)
        row[codes] = rng.random(len(codes)) + 0.02
    return row / row.sum()


def boundary_waves(n: int, every: int, *, full: bool):
    """Update waves as (start, count) spans around checkpoint boundaries.

    Point updates just before / at / just after a boundary, ranged ones
    doing the same, position 0 and n-1 (point and ranged), and a batch of
    two far-apart points.  ``full=False`` keeps a representative subset.
    """
    K = every
    waves = [
        [(2 * K - 1, 1)],  # point, just before a boundary
        [(2 * K, 1)],  # point, at a boundary
        [(2 * K + 1, 1)],  # point, just after a boundary
        [(3 * K - 1, 3)],  # ranged, starting just before a boundary
        [(0, 1)],  # point at position 0
        [(n - 1, 1)],  # point at n - 1
    ]
    if full:
        waves += [
            [(4 * K, 3)],  # ranged, starting at a boundary
            [(5 * K + 1, 3)],  # ranged, starting just after a boundary
            [(0, 2)],  # ranged from position 0
            [(n - 3, 3)],  # ranged ending at n - 1
            [(K + 4, 1), (n - K // 2, 1)],  # two far-apart points
        ]
    return waves


#: (case, matrix factory, [(z, K, waves(n, K) or None), ...])
CASES = [
    (
        "sparse-s91",
        lambda: sparse_rows(np.random.default_rng(9101), 160, 91, 0.99, (2, 5)),
        [(16.0, 16, lambda n, K: boundary_waves(n, K, full=True)), (5.5, 16, None)],
    ),
    (
        "skewed-s4",
        lambda: skewed_rows(np.random.default_rng(401), 128, 4),
        [
            (8.0, 16, lambda n, K: boundary_waves(n, K, full=True)),
            (1.0, 16, lambda n, K: boundary_waves(n, K, full=False)),
            (16.0, 16, None),
        ],
    ),
    (
        "wide-s300",
        lambda: sparse_rows(np.random.default_rng(30001), 96, 300, 0.3, (2, 3)),
        [(5.5, 16, lambda n, K: boundary_waves(n, K, full=False)), (16.0, 16, None)],
    ),
    (
        "uniform-s3",
        lambda: sparse_rows(np.random.default_rng(303), 40, 3, 1.0, (3, 3)),
        [(1.0, 16, None), (8.0, 16, None)],
    ),
    (
        "single-letter",
        lambda: np.ones((25, 1)),
        [(3.0, 4, None), (5.5, 16, lambda n, K: [[(K, 1)]])],
    ),
    (
        "tied-rows",
        tied_rows,
        [(2.0, 4, None), (4.0, 4, None), (8.0, 4, None)],
    ),
    (
        "floor-boundary",
        floor_boundary_rows,
        [(2.0, 4, None), (3.0, 4, None), (4.0, 4, None), (8.0, 4, None)],
    ),
    (
        "decimal-rows",
        lambda: decimal_rows(np.random.default_rng(0), 24),
        [(5.0, 4, None), (10.0, 4, None), (20.0, 4, None)],
    ),
    (
        "fully-certain",
        lambda: certain_rows("ABBABAABBA", "AB"),
        [(6.0, 4, None), (16.0, 4, None)],
    ),
]


# --------------------------------------------------------------------------- #
# encoding                                                                     #
# --------------------------------------------------------------------------- #
def encode_replay(info: dict | None) -> list[int]:
    """``[mode, replayed_from, converged_at, replayed_positions]``, -1 = absent."""
    if info is None:
        return [-1, -1, -1, -1]
    mode = {"full": 0, "checkpoint": 1}[info["estimation_replay"]]
    fields = ("replayed_from", "converged_at", "replayed_positions")
    return [mode] + [-1 if info.get(key) is None else int(info[key]) for key in fields]


def offsets(lengths) -> np.ndarray:
    return np.cumsum([0, *lengths]).astype(np.int64)


def encode_run(prefix: str, steps) -> dict:
    """One run's steps (``(positions, rows, estimation, info)``) as arrays."""
    checkpoints = [c for _, _, estimation, _ in steps for c in estimation.checkpoints]
    arrays = {
        f"{prefix}strings": np.stack([e.strings for _, _, e, _ in steps]),
        f"{prefix}ends": np.stack([e.ends for _, _, e, _ in steps]),
        f"{prefix}replay": np.asarray(
            [encode_replay(info) for *_, info in steps], dtype=np.int64
        ),
        f"{prefix}wave_at": offsets(len(positions) for positions, *_ in steps),
        f"{prefix}positions": np.asarray(
            [p for positions, *_ in steps for p in positions], dtype=np.int64
        ),
        f"{prefix}rows": np.concatenate([rows for _, rows, *_ in steps]),
        f"{prefix}cp_at": offsets(len(e.checkpoints) for _, _, e, _ in steps),
        f"{prefix}cp_position": np.asarray(
            [c.position for c in checkpoints], dtype=np.int64
        ),
        f"{prefix}cp_alive": np.asarray(
            [c.alive_from for c in checkpoints], dtype=np.int64
        ).reshape(len(checkpoints), steps[0][2].width),
    }
    for name in TREE_FIELDS:
        parts = [getattr(c.tree, name) for c in checkpoints]
        dtype = np.float64 if name == "seg_weight" else np.int64
        arrays[f"{prefix}cp_{name}"] = (
            np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
        )
        arrays[f"{prefix}cp_{name}_at"] = offsets(len(part) for part in parts)
    return arrays


def alphabet_of(sigma: int) -> Alphabet:
    return Alphabet([f"c{code}" for code in range(sigma)])


def generate_case(name: str, make_matrix, runs) -> dict:
    matrix = np.ascontiguousarray(make_matrix(), dtype=np.float64)
    n, sigma = matrix.shape
    alphabet = alphabet_of(sigma)
    arrays = {"matrix": matrix, "runs": np.asarray(len(runs), dtype=np.int64)}
    for r, (z, every, make_waves) in enumerate(runs):
        # Full-replay fallbacks of resume use the module default cadence.
        estimation_module.DEFAULT_CHECKPOINT_EVERY = every
        rng = np.random.default_rng([n, sigma, r])
        current = matrix.copy()
        estimation = build_z_estimation(
            WeightedString(current, alphabet), z, checkpoint_every=every
        )
        steps = [([], np.empty((0, sigma)), estimation, None)]
        for wave in make_waves(n, every) if make_waves else []:
            positions = [start + k for start, count in wave for k in range(count)]
            rows = np.asarray([update_row(rng, current) for _ in positions])
            current = current.copy()
            current[positions] = rows
            source = WeightedString(current, alphabet)
            estimation, info = resume_z_estimation(estimation, source, z, positions)
            fresh = build_z_estimation(source, z, checkpoint_every=every)
            assert np.array_equal(fresh.strings, estimation.strings), (name, r)
            assert np.array_equal(fresh.ends, estimation.ends), (name, r)
            assert len(fresh.checkpoints) == len(estimation.checkpoints), (name, r)
            assert all(
                a.matches(b) for a, b in zip(fresh.checkpoints, estimation.checkpoints)
            ), (name, r)
            steps.append((positions, rows, estimation, info))
        arrays.update(encode_run(f"r{r}_", steps))
        arrays[f"r{r}_z"] = np.asarray(z, dtype=np.float64)
        arrays[f"r{r}_every"] = np.asarray(every, dtype=np.int64)
    return arrays


def main() -> None:
    default = estimation_module.DEFAULT_CHECKPOINT_EVERY
    try:
        for name, make_matrix, runs in CASES:
            arrays = generate_case(name, make_matrix, runs)
            path = HERE / f"{name}.npz"
            np.savez_compressed(path, **arrays)
            print(f"{path.name}: {path.stat().st_size} bytes")
    finally:
        estimation_module.DEFAULT_CHECKPOINT_EVERY = default


if __name__ == "__main__":
    main()
