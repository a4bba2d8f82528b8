"""Run metadata stamped onto every benchmark result JSON.

Benchmark trajectories (``BENCH_*.json``) are only comparable across
machines and commits when every result records where it came from.
:func:`run_metadata` gathers the identifying facts — git commit, Python and
NumPy versions, platform and core count — and is stamped onto the ``--json``
output of ``python -m repro.bench`` and of the standalone benchmark runners.
"""

from __future__ import annotations

import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ..version import __version__
from .measure import peak_rss_bytes

__all__ = ["run_metadata"]


def _git_sha() -> str | None:
    """The checked-out commit, or ``None`` outside a git checkout."""
    try:
        output = subprocess.check_output(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            stderr=subprocess.DEVNULL,
            timeout=5,
        )
        return output.decode("ascii").strip()
    except Exception:
        return None


def run_metadata() -> dict:
    """Identifying facts of this benchmark run (JSON-ready)."""
    return {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": _git_sha(),
        "repro_version": __version__,
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy_version": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        # Process RSS high-water mark at stamping time: downstream reports
        # (Figs. 8–9 / 13–14 space plots) read measured peaks from the run
        # metadata and the per-build rows instead of ad-hoc accounting.
        "peak_rss_bytes": peak_rss_bytes(),
    }
