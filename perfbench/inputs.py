"""Seeded workload inputs, generated outside every timed window.

Everything a run sends to the program comes from ``--seed``: the weighted
string, the pattern pool, the request stream, the warm log and the update
batches.  Patterns are windows of one precomputed z-estimation (the paper's
protocol: each has at least one z-valid occurrence) or uniformly random.
Each input is fingerprinted, and a small canary input per generator is
checked against a pinned fingerprint, so a change under ``repro.datasets``
or in the estimation cannot silently change a workload.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.estimation import build_z_estimation
from repro.core.weighted_string import WeightedString
from repro.datasets.genomes import human_like
from repro.datasets.rssi import rssi_like


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # "HUMAN" or "RSSI"
    length: int
    z: float
    ell: int
    mode: str  # the HTTP query mode
    pool: int  # distinct patterns
    lengths: tuple[int, int]  # pattern length range, inclusive
    valid_share: float  # share of the pool sampled from the estimation
    zipf_s: float  # request skew over the pool (0 = uniform)
    shards: int | None = None  # directory store of this many shards
    build_workers: int | None = None
    serve_workers: int = 1
    batch_passes: int = 1  # passes over the pool in the batch phase
    updates: int = 12  # update batches, each followed by its confirming query
    think_s: float = 0.0  # pause between update batches


WORKLOADS = {
    "sensor-hot": Workload(
        "sensor-hot", "RSSI", 10_000, 16, 16, "locate_probs", 500, (16, 32), 1.0, 0.0,
        batch_passes=24, updates=24,
    ),
    "genome-writes": Workload(
        "genome-writes", "HUMAN", 80_000, 8, 32, "locate", 20_000, (32, 64), 0.7, 0.8,
        shards=4, build_workers=2, serve_workers=2, think_s=0.25,
    ),
}

#: Requests in the generated stream (more than one run can send).
STREAM_LENGTH = 200_000
#: Lines of the warm log (a history sample of the same request distribution).
WARM_LOG_LINES = 5_000

#: Fingerprints of small canary inputs (seed 0): if a generator or the
#: estimation changes, every workload built on it changes too.
CANARY_LENGTH = 1_000
PINNED_CANARIES = {
    "HUMAN": "61cc5fc89d5f7db6",
    "RSSI": "9f69e56f2008562c",
}


def fingerprint(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode() + str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def load_string(dataset: str, length: int, seed: int) -> WeightedString:
    if dataset == "HUMAN":
        return human_like(length, seed=seed).weighted_string
    return rssi_like(length, seed=seed)


def canary(workload: Workload) -> str:
    source = load_string(workload.dataset, CANARY_LENGTH, 0)
    estimation = build_z_estimation(source, workload.z)
    return fingerprint(source.matrix, estimation.strings, estimation.ends)


def _windows(rng, estimation, lengths, count: int) -> list[np.ndarray]:
    """``count`` z-valid windows of the estimation strings (with repeats)."""
    n, width = estimation.length, estimation.width
    found: list[np.ndarray] = []
    while len(found) < count:
        draw = 4 * (count - len(found)) + 16
        rows = rng.integers(0, width, size=draw)
        sizes = rng.integers(lengths[0], lengths[1] + 1, size=draw)
        starts = (rng.random(draw) * (n - sizes + 1)).astype(np.int64)
        valid = estimation.ends[rows, starts] >= starts + sizes - 1
        for row, start, size in zip(rows[valid], starts[valid], sizes[valid]):
            found.append(estimation.strings[row, start : start + size].astype(np.int64))
            if len(found) == count:
                break
    return found


def pattern_pool(rng, workload: Workload, source, estimation) -> list[list[int]]:
    """Distinct patterns: valid windows and random strings, shuffled."""
    valid_target = round(workload.pool * workload.valid_share)
    seen: set[bytes] = set()
    valid: list[np.ndarray] = []
    while len(valid) < valid_target:
        for window in _windows(rng, estimation, workload.lengths, valid_target - len(valid)):
            if window.tobytes() not in seen:
                seen.add(window.tobytes())
                valid.append(window)
    random: list[np.ndarray] = []
    while len(valid) + len(random) < workload.pool:
        size = int(rng.integers(workload.lengths[0], workload.lengths[1] + 1))
        window = rng.integers(0, source.sigma, size=size).astype(np.int64)
        if window.tobytes() not in seen:
            seen.add(window.tobytes())
            random.append(window)
    pool = valid + random
    order = rng.permutation(len(pool))
    return [pool[i].tolist() for i in order]


def request_stream(rng, pool_size: int, count: int, zipf_s: float) -> np.ndarray:
    """Pool indices drawn with probability ∝ 1/rank^s (s=0: uniform)."""
    weights = np.arange(1, pool_size + 1, dtype=np.float64) ** (-zipf_s)
    return rng.choice(pool_size, size=count, p=weights / weights.sum())


def update_batches(rng, workload: Workload, source) -> list[list[dict]]:
    """Seeded update batches: rows copied from other positions of the string.

    Every fourth batch is one ranged span of four rows, the others a single
    point update.  Copied rows keep the string's own mix of certain and
    uncertain positions.  Positions stay clear of both ends so the
    confirming query's window fits.
    """
    n = len(source)
    margin = workload.lengths[1]
    matrix = source.matrix
    batches = []
    for number in range(workload.updates):
        position = int(rng.integers(margin, n - margin))
        donor = int(rng.integers(0, n - 4))
        if number % 4 == 3:
            rows = [matrix[donor + k].tolist() for k in range(4)]
            batches.append([{"start": position, "rows": rows}])
        else:
            batches.append([{"position": position, "distribution": matrix[donor].tolist()}])
    return batches


def lru_hit_rate(stream: np.ndarray, capacity: int) -> float:
    """Hit rate of a ``capacity``-entry LRU cache replaying the stream."""
    cache: OrderedDict[int, None] = OrderedDict()
    hits = 0
    for key in stream.tolist():
        if key in cache:
            hits += 1
            cache.move_to_end(key)
        else:
            cache[key] = None
            if len(cache) > capacity:
                cache.popitem(last=False)
    return hits / len(stream)


@dataclass
class Inputs:
    workload: Workload
    seed: int
    source: WeightedString
    pool: list[list[int]]
    stream: np.ndarray  # pool indices
    warm_log: list[list[int]]
    updates: list[list[dict]]
    fingerprints: dict

    def payload(self, index: int) -> bytes:
        """The ``POST /query`` body for pool pattern ``index``."""
        request = {"pattern": self.pool[index]}
        if self.workload.mode != "locate":
            request["mode"] = self.workload.mode
        return json.dumps(request).encode()


def generate(workload: Workload, seed: int) -> Inputs:
    source = load_string(workload.dataset, workload.length, seed)
    estimation = build_z_estimation(source, workload.z)
    rng = np.random.default_rng([seed, workload.length, int(workload.z)])
    pool = pattern_pool(rng, workload, source, estimation)
    stream = request_stream(rng, len(pool), STREAM_LENGTH, workload.zipf_s)
    history = request_stream(rng, len(pool), WARM_LOG_LINES, workload.zipf_s)
    warm_log = [pool[i] for i in history]
    updates = update_batches(rng, workload, source)
    fingerprints = {
        "string": fingerprint(source.matrix),
        "estimation": fingerprint(estimation.strings, estimation.ends),
        "pool": hashlib.sha256(json.dumps(pool).encode()).hexdigest()[:16],
        "stream": fingerprint(stream),
        "warm_log": fingerprint(history),
        "updates": hashlib.sha256(json.dumps(updates).encode()).hexdigest()[:16],
        "canary": canary(workload),
    }
    return Inputs(workload, seed, source, pool, stream, warm_log, updates, fingerprints)
