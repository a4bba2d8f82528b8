"""Per-stage wall-clock accounting for construction provenance.

The builders of the heavy structures (z-estimation, trie topology, grid
levels, suffix array) wrap their hot section in :func:`stage_timer`;
``build --json`` drains the accumulated totals with :func:`collect_stages`
so every reported number names the stages that produced it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["record_stage", "collect_stages", "stage_timer"]

_STAGES: dict[str, float] = {}


def record_stage(name: str, seconds: float) -> None:
    """Accumulate ``seconds`` of work under stage ``name``."""
    _STAGES[name] = _STAGES.get(name, 0.0) + float(seconds)


def collect_stages(*, reset: bool = True) -> dict[str, float]:
    """Snapshot the accumulated per-stage totals, clearing them by default."""
    snapshot = dict(_STAGES)
    if reset:
        _STAGES.clear()
    return snapshot


@contextmanager
def stage_timer(name: str):
    """Context manager adding the elapsed wall time to stage ``name``."""
    started = time.perf_counter()
    try:
        yield
    finally:
        record_stage(name, time.perf_counter() - started)
