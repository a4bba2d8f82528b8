"""Query pattern samplers (the experimental protocol of Section 7.1).

The paper samples query patterns uniformly at random from the z-estimation
of each weighted string: a pattern of length ``m`` is a property-respecting
window of one of the ``⌊z⌋`` strings, so it is guaranteed to have at least
one z-valid occurrence.  Negative and mutated samplers are also provided for
tests and robustness experiments.
"""

from __future__ import annotations

import numpy as np

from ..core.estimation import ZEstimation, build_z_estimation
from ..core.weighted_string import WeightedString
from ..errors import DatasetError

__all__ = [
    "paper_pattern_count",
    "sample_valid_patterns",
    "sample_random_patterns",
    "sample_zipf_workload",
    "mutate_pattern",
]


def paper_pattern_count(length: int, z: float, *, cap: int | None = None) -> int:
    """The paper's ``⌊nz/200⌋`` pattern count (optionally capped)."""
    count = max(1, int(length * z) // 200)
    if cap is not None:
        count = min(count, cap)
    return count


def sample_valid_patterns(
    source: WeightedString,
    z: float,
    m: int,
    count: int,
    *,
    estimation: ZEstimation | None = None,
    seed: int | None = None,
) -> list[list[int]]:
    """Sample ``count`` patterns of length ``m`` from the z-estimation.

    Every returned pattern is a property-respecting window of one of the
    estimation strings and therefore has at least one z-valid occurrence in
    the weighted string (the paper's query workload).
    """
    if m <= 0:
        raise DatasetError("pattern length must be positive")
    if count < 0:
        raise DatasetError("pattern count must be non-negative")
    if estimation is None:
        estimation = build_z_estimation(source, z)
    n = estimation.length
    if n < m:
        raise DatasetError(f"patterns of length {m} cannot fit a string of length {n}")
    rng = np.random.default_rng(seed)
    starts = np.arange(n - m + 1, dtype=np.int64)
    candidates: list[tuple[int, int]] = []
    for j in range(estimation.width):
        valid = estimation.ends[j][: n - m + 1] >= starts + m - 1
        for start in np.nonzero(valid)[0]:
            candidates.append((j, int(start)))
    if not candidates:
        raise DatasetError(
            f"the {z:g}-estimation has no valid window of length {m}; "
            "lower m or raise z"
        )
    picks = rng.integers(0, len(candidates), size=count)
    patterns = []
    for pick in picks:
        j, start = candidates[int(pick)]
        patterns.append([int(code) for code in estimation.strings[j, start : start + m]])
    return patterns


def sample_random_patterns(
    source: WeightedString,
    m: int,
    count: int,
    *,
    seed: int | None = None,
) -> list[list[int]]:
    """Uniformly random patterns (mostly without valid occurrences)."""
    if m <= 0:
        raise DatasetError("pattern length must be positive")
    rng = np.random.default_rng(seed)
    return [
        [int(code) for code in rng.integers(0, source.sigma, size=m)]
        for _ in range(count)
    ]


def sample_zipf_workload(
    patterns: list,
    count: int,
    *,
    s: float = 1.2,
    seed: int | None = None,
) -> list:
    """A skewed request stream over a pattern pool (serving-workload model).

    Draws ``count`` requests where the pattern of rank ``r`` (1-based, in
    pool order) is requested with probability proportional to ``1/r^s`` —
    the classic Zipf model of production query traffic, in which a few hot
    patterns dominate.  This is the workload of the ``servemix`` experiment.
    """
    if not patterns:
        raise DatasetError("the pattern pool of a Zipf workload cannot be empty")
    if count < 0:
        raise DatasetError("request count must be non-negative")
    ranks = np.arange(1, len(patterns) + 1, dtype=np.float64)
    weights = ranks ** (-float(s))
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(patterns), size=count, p=weights)
    return [patterns[int(pick)] for pick in picks]


def mutate_pattern(
    pattern: list[int],
    sigma: int,
    mutations: int,
    *,
    seed: int | None = None,
) -> list[int]:
    """Substitute ``mutations`` random positions of a pattern (robustness tests)."""
    if mutations < 0:
        raise DatasetError("mutations must be non-negative")
    rng = np.random.default_rng(seed)
    mutated = list(pattern)
    if not mutated:
        return mutated
    for position in rng.choice(len(mutated), size=min(mutations, len(mutated)), replace=False):
        original = mutated[int(position)]
        choices = [code for code in range(sigma) if code != original]
        if choices:
            mutated[int(position)] = int(rng.choice(choices))
    return mutated
