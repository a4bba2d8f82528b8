"""Boundary-length audit of the plain (Section 5) vs grid (Theorem 9) queries.

The two query paths split a pattern at the leftmost minimizer of its first
length-ℓ window; the plain path searches only the longer piece and verifies,
the grid path intersects both pieces through 2D range reporting.  The
boundary regimes exercised here:

* ``m < ℓ``       — unsupported by every minimizer variant: both paths must
                    reject with the same :class:`PatternError`;
* ``m = ℓ``       — a single window; the backward piece can be a single
                    letter (``μ = 0``);
* ``m = 2ℓ - 1``  — the last length where every position of the pattern is
                    covered by a window containing the anchor (the Theorem 9
                    statement's length threshold);
* ``m ≥ 2ℓ``      — long patterns whose forward piece far exceeds ℓ.

Audit result (recorded 2026-07): no divergence — both paths are complete for
every ``m ≥ ℓ`` because the property end-points of a z-estimation are
monotone (if an occurrence at ``i`` respects ``π_j``, the property also
covers the suffix of the window from the anchor ``q ≥ i``), so the paired
forward/backward leaves anchored at ``q`` always extend over the whole
occurrence.  These tests pin that behaviour against regressions.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_oracle_equivalence import random_source
from repro.core.estimation import build_z_estimation
from repro.datasets.patterns import sample_valid_patterns
from repro.errors import PatternError
from repro.indexes import brute_force_occurrences, build_index

PLAIN = ("MWST", "MWSA")
GRID = ("MWST-G", "MWSA-G")

BOUNDARY_CASES = [
    pytest.param(sigma, z, ell, seed, id=f"s{sigma}-z{z:g}-l{ell}-seed{seed}")
    for (sigma, z, ell) in ((2, 4.0, 3), (3, 4.0, 4), (2, 8.0, 5), (4, 2.0, 4))
    for seed in range(4)
]


def boundary_patterns(source, estimation, z, ell, seed) -> list[list[int]]:
    """Random and valid patterns at every boundary length of both paths."""
    rng = np.random.default_rng(seed)
    lengths = sorted(
        {ell, ell + 1, 2 * ell - 2, 2 * ell - 1, 2 * ell, 2 * ell + 1, 3 * ell}
    )
    patterns = []
    for m in lengths:
        if m < ell or m > len(source):
            continue
        patterns.append([int(code) for code in rng.integers(0, source.sigma, size=m)])
        try:
            patterns.extend(
                sample_valid_patterns(
                    source, z, m=m, count=2, estimation=estimation, seed=seed + m
                )
            )
        except Exception:
            pass  # no property-respecting window of this length
    return patterns


@pytest.mark.parametrize("sigma,z,ell,seed", BOUNDARY_CASES)
def test_plain_and_grid_agree_on_boundary_lengths(sigma, z, ell, seed):
    source = random_source(40, sigma, seed + 500)
    estimation = build_z_estimation(source, z)
    indexes = {
        kind: build_index(source, z, kind=kind, ell=ell, estimation=estimation)
        for kind in PLAIN + GRID
    }
    patterns = boundary_patterns(source, estimation, z, ell, seed)
    assert any(len(pattern) >= 2 * ell - 1 for pattern in patterns)
    for pattern in patterns:
        oracle = brute_force_occurrences(source, pattern, z)
        for kind, index in indexes.items():
            assert index.locate(pattern) == oracle, (
                f"{kind} diverges at boundary length {len(pattern)} (ell={ell})"
            )
    # Whole batches (more than one distinct pattern) must agree too.
    for kind, index in indexes.items():
        assert index.match_many(patterns) == [
            brute_force_occurrences(source, pattern, z) for pattern in patterns
        ], f"{kind} batch path diverges on the boundary workload"


@pytest.mark.parametrize("kind", PLAIN + GRID)
def test_patterns_below_ell_rejected_consistently(kind):
    source = random_source(36, 3, 7)
    ell = 4
    index = build_index(source, 4.0, kind=kind, ell=ell)
    for m in range(1, ell):
        pattern = [0] * m
        with pytest.raises(PatternError):
            index.locate(pattern)
        with pytest.raises(PatternError):
            index.match_many([pattern])
    # Exactly ℓ is the first supported length on both paths.
    pattern = [0] * ell
    assert index.locate(pattern) == brute_force_occurrences(source, pattern, 4.0)


def test_minimum_pattern_length_reported():
    source = random_source(30, 2, 3)
    for kind, expected in (("MWSA", 5), ("MWSA-G", 5), ("WSA", 1), ("WST", 1)):
        index = build_index(source, 2.0, kind=kind, ell=5)
        assert index.minimum_pattern_length == expected
