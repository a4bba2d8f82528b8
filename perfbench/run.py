"""The repository's benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sensor-hot --seed 1 --seconds 10 --trace 0

It generates the workload's inputs from the seed, builds the store through
the library, serves it with ``python -m repro.cli serve-http`` and drives
it over localhost sockets, checking every answer it times.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics and the
tracing overhead with ``--trace 1``.  Timings are corrected for the host's
speed and steal time as measured around each sample (see ``phases``).  A
detail record (fingerprints, run conditions, raw samples, server counters
and, when traced, every span) is written under ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    from inputs import PINNED_CANARIES, WORKLOADS, generate
    from phases import Run

    workload = WORKLOADS[arguments.workload]
    inputs = generate(workload, arguments.seed)
    canary_ok = inputs.fingerprints["canary"] == PINNED_CANARIES[workload.dataset]
    if not canary_ok:
        print(f"input generator changed: canary {inputs.fingerprints['canary']} "
              f"!= pinned {PINNED_CANARIES[workload.dataset]}", file=sys.stderr)
    out = ROOT / ".perfbench"
    workdir = out / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    traced = bool(arguments.trace)
    run = Run(ROOT, inputs, traced, workdir, arguments.seconds)
    try:
        run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if traced else "end_to_end"]
    metrics = run.layers if traced else run.metrics
    wrong = [
        entry["name"] for entry in declared
        if entry["name"] not in metrics or metrics[entry["name"]][1] != entry["unit"]
        or not math.isfinite(metrics[entry["name"]][0])
    ]
    if wrong:
        raise RuntimeError(f"metrics not measured as declared in BENCHMARK.json: {wrong}")
    names = [entry["name"] for entry in declared]
    detail = {
        "workload": workload.name, "seed": arguments.seed, "trace": arguments.trace,
        "attempted": run.attempted, "failed": run.failed,
        "conditions": run.conditions.phases, **run.details,
        "spans": run.tracer.spans,
    }
    (out / f"{workload.name}-seed{arguments.seed}-trace{arguments.trace}.json").write_text(
        json.dumps(detail, default=float))
    failed = sum(run.failed.values())
    result = {
        "correct": canary_ok and failed == 0,
        "attempted": sum(run.attempted.values()),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
