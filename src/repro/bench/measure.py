"""Measurement helpers: the four efficiency measures of the paper.

* index size        — the space model bytes reported by each index;
* construction space — the space model peak recorded at build time
                        (optionally cross-checked with ``tracemalloc``);
* construction time — wall-clock seconds of the build, split into the
                        :mod:`repro.timing` stages it ran;
* query time        — average microseconds per pattern over a workload.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..timing import collect_stages

__all__ = [
    "BuildMeasurement",
    "measure_build",
    "measure_query_time",
    "peak_rss_bytes",
    "process_memory",
    "smaps_rollup_bytes",
    "timed",
]


def peak_rss_bytes() -> int | None:
    """The process's resident-set high-water mark in bytes, if knowable.

    Prefers ``VmHWM`` from ``/proc/self/status`` (Linux), falls back to
    ``resource.getrusage`` (``ru_maxrss`` is KiB on Linux, bytes on macOS),
    and returns ``None`` on platforms exposing neither.  The value is a
    process-lifetime maximum — to attribute memory to one build, compare
    readings before and after, or run the build in a fresh process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(usage) if sys.platform == "darwin" else int(usage) * 1024
    except (ImportError, ValueError, OSError):
        return None


#: ``smaps_rollup`` fields worth reporting, normalized to snake_case keys.
_SMAPS_FIELDS = {
    "Rss": "rss",
    "Pss": "pss",
    "Shared_Clean": "shared_clean",
    "Shared_Dirty": "shared_dirty",
    "Private_Clean": "private_clean",
    "Private_Dirty": "private_dirty",
}


def smaps_rollup_bytes(pid: int | str = "self") -> dict[str, int] | None:
    """Shared/private resident-memory accounting from ``/proc/<pid>/smaps_rollup``.

    Returns ``{rss, pss, shared_clean, shared_dirty, private_clean,
    private_dirty}`` in bytes, plus derived ``shared`` and ``private``
    totals, or ``None`` where the kernel does not expose the file (non-Linux,
    or a PID gone away).  This is how the multi-worker serving bench proves
    the memory-mapped index is *shared*: N workers over one store show the
    index pages as shared (counted once physically) while private bytes stay
    at roughly one Python heap per worker.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            values: dict[str, int] = {}
            for line in handle:
                name, _, rest = line.partition(":")
                key = _SMAPS_FIELDS.get(name.strip())
                if key is not None:
                    values[key] = int(rest.split()[0]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    if not values:
        return None
    values["shared"] = values.get("shared_clean", 0) + values.get("shared_dirty", 0)
    values["private"] = values.get("private_clean", 0) + values.get("private_dirty", 0)
    return values


def process_memory() -> dict:
    """The ``memory`` block of a serving process's ``/stats``.

    ``peak_rss_bytes`` always (``None`` where unknowable), plus
    ``shared_bytes`` / ``private_bytes`` / ``pss_bytes`` from
    :func:`smaps_rollup_bytes` where the kernel exposes them.
    """
    memory = {"peak_rss_bytes": peak_rss_bytes()}
    rollup = smaps_rollup_bytes()
    if rollup is not None:
        memory["shared_bytes"] = rollup["shared"]
        memory["private_bytes"] = rollup["private"]
        memory["pss_bytes"] = rollup.get("pss")
    return memory


def timed(function: Callable, *args, **kwargs):
    """Run a callable and return ``(result, seconds)``."""
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - started


@dataclass
class BuildMeasurement:
    """Everything measured while building one index."""

    index: object
    name: str
    seconds: float
    index_size_bytes: int
    construction_space_bytes: int
    tracemalloc_peak_bytes: int | None = None
    #: How much this build raised the process RSS high-water mark (``VmHWM``
    #: is a process-lifetime maximum, so only the delta is attributable to
    #: one build; 0 means an earlier allocation already peaked higher).
    rss_peak_delta_bytes: int | None = None
    #: Seconds of each :mod:`repro.timing` stage this build ran (estimation,
    #: sa, trie, grid); ``seconds`` also covers the untimed glue between them.
    stages: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        """Flat dictionary row used by the reports (one column per stage)."""
        row = {
            "index": self.name,
            "construction_seconds": self.seconds,
            "index_size_mb": self.index_size_bytes / 1e6,
            "construction_space_mb": self.construction_space_bytes / 1e6,
        }
        for stage, seconds in self.stages.items():
            row[f"{stage}_seconds"] = seconds
        if self.tracemalloc_peak_bytes is not None:
            row["tracemalloc_peak_mb"] = self.tracemalloc_peak_bytes / 1e6
        if self.rss_peak_delta_bytes is not None:
            row["rss_peak_delta_mb"] = self.rss_peak_delta_bytes / 1e6
        return row


def measure_build(
    builder: Callable[[], object],
    name: str,
    *,
    trace_memory: bool = False,
) -> BuildMeasurement:
    """Build one index and collect the paper's construction measures.

    ``builder`` is a zero-argument callable returning the built index; the
    index is expected to expose the :class:`repro.indexes.space.IndexStats`
    protocol through its ``stats`` attribute.  Each measurement records how
    much the build raised the process RSS high-water mark (the mark itself
    is a process-lifetime maximum, so only the before/after delta is
    attributable to one build; ``None`` when the platform exposes no RSS);
    ``trace_memory`` additionally runs the build under ``tracemalloc`` for
    exact per-build Python-side peaks — the measured companions of the
    space-model accounting behind Figs. 8–9 and 13–14.  The stage timers
    are drained before the build, so ``stages`` covers this build only.
    """
    rss_before = peak_rss_bytes()
    collect_stages()
    if trace_memory:
        tracemalloc.start()
    started = time.perf_counter()
    index = builder()
    seconds = time.perf_counter() - started
    stages = collect_stages()
    peak = None
    if trace_memory:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    rss_after = peak_rss_bytes()
    rss_delta = (
        max(0, rss_after - rss_before)
        if rss_before is not None and rss_after is not None
        else None
    )
    stats = getattr(index, "stats", None)
    index_size = getattr(stats, "index_size_bytes", 0)
    construction_space = getattr(stats, "construction_space_bytes", 0)
    return BuildMeasurement(
        index=index,
        name=name,
        seconds=seconds,
        index_size_bytes=index_size,
        construction_space_bytes=construction_space,
        tracemalloc_peak_bytes=peak,
        rss_peak_delta_bytes=rss_delta,
        stages=stages,
    )


def measure_query_time(index, patterns: Sequence, *, repeats: int = 1) -> float:
    """Average query time in microseconds over a pattern workload.

    An untimed first query lets the array variants build their search keys
    (lazily, on the first search) before the timer starts, as the tree
    variants build their tries with the index.
    """
    if not patterns:
        return 0.0
    index.locate(patterns[0])
    total = 0.0
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        for pattern in patterns:
            index.locate(pattern)
        total += time.perf_counter() - started
    queries = len(patterns) * max(1, repeats)
    return 1e6 * total / queries
