"""The experiment harness: scales, shared builds and sweep execution.

Every figure of the paper's Section 7 is a sweep of one parameter (ℓ, z, σ
or n) over a set of indexes on a dataset, reporting one of the four
efficiency measures.  :class:`BenchScale` centralises the sweep values so
the same experiment code runs at three sizes:

* ``tiny``  — a minute or two for the whole suite
  (``python -m repro.bench --scale tiny``);
* ``small`` — minutes; the default of ``examples/reproduce_paper.py``;
* ``paper`` — the paper's parameter values (requires the full-length
  datasets and a lot of patience in pure Python).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.weighted_string import WeightedString
from ..datasets.patterns import sample_valid_patterns
from ..datasets.registry import load_dataset
from ..indexes import build_index, get_spec
from ..sampling.minimizers import MinimizerScheme
from .measure import BuildMeasurement, measure_build, measure_query_time

__all__ = ["BenchScale", "SCALES", "build_index_suite", "query_workload", "sweep_rows"]

#: All index names, in the order the paper's figures list them.
TREE_KINDS = ("WST", "MWST", "MWST-G")
ARRAY_KINDS = ("WSA", "MWSA", "MWSA-G")
SE_KINDS = ("WST", "MWST", "WSA", "MWSA", "MWST-SE")


@dataclass
class BenchScale:
    """Sweep values for one run of the experiment suite."""

    name: str
    dataset_lengths: dict = field(default_factory=dict)
    ell_values: tuple = (8, 16, 32)
    z_values: dict = field(default_factory=dict)
    default_ell: int = 16
    pattern_count: int = 10
    rssi_sigma_values: tuple = (16, 32, 64, 91)
    rssi_length_factors: tuple = (1, 2)
    #: Synthetic input length and sweep values of the shard-scaling experiment.
    shard_length: int = 2_000
    shard_counts: tuple = (1, 2, 4)
    shard_workers: tuple = (1, 2)
    #: Serving-mix experiment: request count, hot-pattern pool size and the
    #: Zipf skew exponent of the request stream.
    serve_request_count: int = 600
    serve_unique_patterns: int = 60
    serve_zipf_s: float = 1.2

    def dataset(self, name: str, *, seed: int | None = None) -> WeightedString:
        """Load a dataset at this scale."""
        return load_dataset(name, self.dataset_lengths.get(name), seed=seed)

    def zs(self, dataset: str) -> tuple:
        """The z sweep of one dataset at this scale."""
        return self.z_values.get(dataset, (4, 8, 16))

    def default_z(self, dataset: str) -> float:
        """The default z of one dataset at this scale (middle of its sweep)."""
        values = self.zs(dataset)
        return values[len(values) // 2]


SCALES: dict[str, BenchScale] = {
    "tiny": BenchScale(
        name="tiny",
        dataset_lengths={"SARS": 2_000, "EFM": 2_000, "HUMAN": 2_000, "RSSI": 1_200},
        ell_values=(8, 16, 32),
        z_values={
            "SARS": (4, 8, 16),
            "EFM": (4, 8, 16),
            "HUMAN": (2, 4, 8),
            "RSSI": (2, 4, 8),
        },
        default_ell=16,
        pattern_count=8,
        rssi_sigma_values=(16, 32, 64, 91),
        rssi_length_factors=(1, 2),
        shard_length=2_000,
        shard_counts=(1, 2, 4),
        shard_workers=(1, 2),
        serve_request_count=600,
        serve_unique_patterns=60,
    ),
    "small": BenchScale(
        name="small",
        dataset_lengths={"SARS": 12_000, "EFM": 12_000, "HUMAN": 12_000, "RSSI": 6_000},
        ell_values=(16, 32, 64, 128),
        z_values={
            "SARS": (8, 16, 32, 64),
            "EFM": (8, 16, 32, 64),
            "HUMAN": (2, 4, 8, 16),
            "RSSI": (4, 8, 16, 32),
        },
        default_ell=32,
        pattern_count=20,
        rssi_sigma_values=(16, 32, 64, 91),
        rssi_length_factors=(1, 2, 4),
        shard_length=20_000,
        shard_counts=(1, 2, 4, 8),
        shard_workers=(1, 4),
        serve_request_count=5_000,
        serve_unique_patterns=200,
    ),
    "paper": BenchScale(
        name="paper",
        dataset_lengths={
            "SARS": 29_903,
            "EFM": 2_955_294,
            "HUMAN": 35_194_566,
            "RSSI": 6_053_462,
        },
        ell_values=(64, 128, 256, 512, 1024),
        z_values={
            "SARS": (64, 128, 256, 512, 1024),
            "EFM": (8, 16, 32, 64, 128),
            "HUMAN": (2, 4, 8, 16, 32),
            "RSSI": (4, 8, 16, 32, 64),
        },
        default_ell=256,
        pattern_count=200,
        rssi_sigma_values=(16, 32, 64, 91),
        rssi_length_factors=(1, 2, 4, 6, 8),
        shard_length=200_000,
        shard_counts=(1, 2, 4, 8, 16),
        shard_workers=(1, 4, 8),
        serve_request_count=50_000,
        serve_unique_patterns=1_000,
    ),
}


def build_index_suite(
    source: WeightedString,
    z: float,
    ell: int,
    kinds,
    *,
    scheme: MinimizerScheme | None = None,
    trace_memory: bool = False,
) -> dict[str, BuildMeasurement]:
    """Build a set of index kinds on one input, each one from scratch.

    Every kind runs its whole construction — z-estimation, leaves, sort,
    tries, grid — inside its own timer and memory trace, as the paper times
    construction.  A ``scheme`` given here (e.g. another minimizer order) is
    passed to every minimizer kind.  Each measurement carries the
    :mod:`repro.timing` stage seconds of its own build, so the stages every
    explicit construction repeats (the estimation above all) stay visible
    in their own columns.
    """
    measurements = {}
    for kind in kinds:
        options = {}
        if get_spec(kind).needs_ell:
            options["ell"] = ell
            if scheme is not None:
                options["scheme"] = scheme
        measurements[kind] = measure_build(
            lambda kind=kind, options=options: build_index(source, z, kind=kind, **options),
            kind,
            trace_memory=trace_memory,
        )
    return measurements


def query_workload(
    source: WeightedString,
    z: float,
    m: int,
    count: int,
    *,
    seed: int | None = 0,
) -> list[list[int]]:
    """The paper's query workload: valid patterns sampled from the z-estimation."""
    return sample_valid_patterns(source, z, m, count, seed=seed)


def sweep_rows(
    measurements: dict[str, BuildMeasurement],
    parameters: dict,
    *,
    patterns=None,
) -> list[dict]:
    """Flatten one sweep point into report rows (one row per index)."""
    rows = []
    for name, measurement in measurements.items():
        row = dict(parameters)
        row.update(measurement.as_row())
        if patterns is not None:
            row["avg_query_us"] = measure_query_time(measurement.index, patterns)
        rows.append(row)
    return rows
