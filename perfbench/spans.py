"""Spans recorded from outside the program, and the run's conditions.

A span is ``{name, start, end, parent, request}``.  Spans are kept in memory
and written out when the run ends.  A layer's self time is its span minus
the part of that interval its child spans cover.  Spans wrap calls the
benchmark makes into the program's public functions; nothing under ``src/``
is instrumented.

Run conditions are read per phase: steal ticks from ``/proc/stat`` and a
short fixed reference loop.  Process CPU time excludes steal on kernels with
paravirtual time accounting, so CPU and wall time of the same loop differ
when the host is busy.

:class:`Reference` is the host-speed probe timings are scaled by: on a
shared VM the speed of small-allocation NumPy and interpreter work flips
between modes up to 2x apart for tens of seconds to minutes at a time, and
a kernel of the same style, run right before and after a sample, slows
down with it.  The probe reads CPU time, so a burst of steal during a probe
does not skew the scale.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

import numpy as np

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        if not self.enabled:
            yield
            return
        record = self.record(name, time.perf_counter(), None, request=request)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end, *, request=None, nested: bool = True) -> dict:
        """Add a finished (or, with ``end=None``, open) span.

        A ``nested`` span's parent is the innermost open span; concurrent
        request spans pass ``nested=False``, since the open span may belong
        to another coroutine.
        """
        record = {
            "id": len(self.spans), "name": name, "start": start, "end": end,
            "parent": self._stack[-1] if nested and self._stack else None, "request": request,
        }
        if self.enabled:
            self.spans.append(record)
        return record

    @contextlib.contextmanager
    def wrapped(self, owner, attribute: str, name: str):
        """Wrap ``owner.attribute`` (a function) in a span while the block runs."""
        original = getattr(owner, attribute)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    def self_times(self) -> dict[int, float]:
        """Self time of every span (seconds), keyed by span id."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        own = {}
        for span in self.spans:
            covered = 0.0
            reach = span["start"]
            for start, end in sorted(children.get(span["id"], [])):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            own[span["id"]] = span["end"] - span["start"] - covered
        return own

    def self_time(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        own = self.self_times()
        return sum(own[s["id"]] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process (``/proc/<pid>/stat``); 0 once gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def steal_ticks() -> int:
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def reference_loop() -> dict:
    """Wall and CPU seconds of a fixed pure-Python loop (host speed probe)."""
    wall, cpu = time.perf_counter(), time.process_time()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    return {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}


class Reference:
    """A fixed kernel in the style of the query and build paths.

    Python dict inserts of small NumPy arrays, a fancy-index gather, a sum
    and an argsort: about 2 ms of CPU time on an uncontended 2-vCPU VM.
    ``scale`` is the factor from the measured to the nominal host speed
    (``NOMINAL_S`` per kernel) for a timing taken between two probes.
    """

    NOMINAL_S = 0.002

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.random((2_000, 200))
        self.rows = rng.integers(0, 2_000, size=500)

    def _kernel(self) -> float:
        started = time.thread_time()
        table = {}
        for key in range(2_000):
            table[key] = np.arange(key % 16)
        np.argsort(self.matrix[self.rows].sum(axis=1))
        return time.thread_time() - started

    def probe(self) -> float:
        """Median CPU seconds of five kernel runs."""
        return statistics.median(self._kernel() for _ in range(5))

    def scale(self, before: float, after: float) -> float:
        """Factor from measured to nominal host speed for a bracketed timing."""
        return self.NOMINAL_S / ((before + after) / 2)


class Conditions:
    """Per-phase run conditions: steal ticks, reference loop, CPU of processes."""

    def __init__(self) -> None:
        self.phases: dict[str, dict] = {}

    @contextlib.contextmanager
    def phase(self, name: str, pids=()):
        entry = {"reference": reference_loop()}
        steal, wall = steal_ticks(), time.perf_counter()
        own = time.process_time()
        before = {pid: process_cpu_s(pid) for pid in pids}
        try:
            yield entry
        finally:
            entry["wall_s"] = time.perf_counter() - wall
            entry["steal_ticks"] = steal_ticks() - steal
            entry["client_cpu_s"] = time.process_time() - own
            entry["server_cpu_s"] = {
                str(pid): process_cpu_s(pid) - start for pid, start in before.items()
            }
            self.phases[name] = entry
