"""``python -m repro.bench`` — run the paper's experiment suite and print it.

``--json FILE`` additionally writes the raw result rows, stamped with the
run metadata (git sha, Python/NumPy versions, cpu count — see
:mod:`repro.bench.metadata`), so result files from different machines and
commits stay comparable.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import ALL_EXPERIMENTS, run_all
from .harness import SCALES
from .metadata import run_metadata


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the tables and figures of the paper's evaluation.",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="tiny",
        help="sweep sizes: tiny (a minute or two), small (minutes), paper (full parameters)",
    )
    parser.add_argument(
        "--experiments",
        nargs="*",
        choices=sorted(ALL_EXPERIMENTS),
        help="subset of experiments to run (default: all)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the result rows (with run metadata) to this JSON file",
    )
    arguments = parser.parse_args(argv)
    results = run_all(arguments.scale, arguments.experiments)
    for result in results:
        print("=" * 78)
        print(result.text)
    if arguments.json:
        payload = {
            "metadata": run_metadata(),
            "scale": arguments.scale,
            "results": [
                {
                    "experiment": result.experiment,
                    "description": result.description,
                    "rows": result.rows,
                }
                for result in results
            ],
        }
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print(f"wrote {arguments.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
