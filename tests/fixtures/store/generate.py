"""Generate the version-2 store fixtures of ``tests/test_store_layout.py``.

Two stores in the version-2 layout — a dense ``float64`` source matrix and
an ``int64`` z-estimation — kept so that the read path of that version
stays pinned now that the writer produces version 3:

* ``v2-mwsa.idx``: a monolithic MWSA index over a seeded 60-position string;
* ``v2-sharded/``: a 2-shard MWSA directory store over a seeded 80-position
  string.

Both strings are drawn here from a seeded generator, so nothing depends on
``repro.datasets``; the stores carry the source, so the test rebuilds from
what it loads.  The stores are written by whatever ``repro`` is importable,
and the script refuses to run unless its ``STORE_VERSION`` is 2: run it from
the repository root against a checkout from before the sparse-row layout::

    PYTHONPATH=<version-2 checkout>/src python tests/fixtures/store/generate.py
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from repro.core.alphabet import Alphabet
from repro.core.weighted_string import WeightedString
from repro.indexes import build_index
from repro.io.store import STORE_VERSION, save_index, save_sharded_store

HERE = Path(__file__).resolve().parent
Z = 4.0
ELL = 4


def seeded_string(n: int, seed: int) -> WeightedString:
    """Certain rows, and about a third of them spread over two or three letters."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((n, 4))
    for position in range(n):
        letters = rng.choice(4, size=int(rng.choice([1, 1, 2, 3])), replace=False)
        weights = rng.random(len(letters)) + 0.1
        matrix[position, letters] = weights / weights.sum()
    return WeightedString(matrix, Alphabet("ACGT"))


def main() -> None:
    if STORE_VERSION != 2:
        raise SystemExit(
            f"the importable repro writes store version {STORE_VERSION}; "
            "these fixtures need a version-2 writer"
        )
    save_index(
        HERE / "v2-mwsa.idx",
        build_index(seeded_string(60, seed=5), Z, kind="MWSA", ell=ELL),
    )
    directory = HERE / "v2-sharded"
    shutil.rmtree(directory, ignore_errors=True)
    save_sharded_store(
        directory,
        build_index(
            seeded_string(80, seed=6), Z, kind="MWSA", ell=ELL, shards=2,
            max_pattern_len=2 * ELL,
        ),
    )


if __name__ == "__main__":
    main()
