"""The wire protocol shared by the stdin serve loop and the HTTP API.

Both front-ends speak the same JSON request shapes over a
:class:`~repro.service.QueryService`:

* a **query** object carries ``pattern`` plus optional ``mode`` / ``k`` /
  ``z`` / ``zs`` fields (``zs`` a JSON list; ``z`` and every ``zs`` entry
  numbers, ``k`` an integer — bools and strings are refused, never coerced);
* an **update** list carries ``{"position": ..., "distribution": {...}}``
  objects (or bare ``[position, distribution]`` pairs).

This module turns those JSON payloads into the library's typed requests with
one set of validation rules and error messages, so a request is accepted or
rejected identically whether it arrives on stdin or over HTTP.
"""

from __future__ import annotations

from ..errors import QueryError, ReproError
from ..indexes import Query

__all__ = ["query_from_payload", "parse_updates"]


def query_from_payload(payload: dict) -> Query:
    """Build a :class:`Query` from a JSON request object.

    Unknown fields are rejected — a typo like ``"paterns"`` must not
    silently degrade the request into something the caller did not ask.
    """
    if not isinstance(payload, dict):
        raise ReproError("a JSON request must be an object")
    unknown = set(payload) - {"pattern", "mode", "k", "z", "zs"}
    if unknown:
        raise ReproError(
            f"unknown query fields {sorted(unknown)}; "
            "a query carries pattern/mode/k/z/zs"
        )
    pattern = payload.get("pattern")
    if pattern is None:
        raise ReproError("a JSON request needs a 'pattern' field")
    zs = payload.get("zs")
    if zs is not None and not isinstance(zs, list):
        # ``tuple("48")`` would sweep z = 4 and z = 8.
        raise QueryError(f"zs must be a JSON list of numbers, got {zs!r}")
    return Query(
        pattern,
        mode=payload.get("mode", "locate"),
        k=payload.get("k"),
        z=payload.get("z"),
        # An explicitly given empty sweep must raise, not silently degrade
        # to a single-z answer of the wrong shape.
        zs=None if zs is None else tuple(zs),
    )


def parse_updates(payload) -> list[tuple[int, dict]]:
    """Normalize a JSON update list into ``(position, distribution)`` pairs.

    Accepts ``{"position": i, "distribution": {...}}`` objects, bare
    ``[position, distribution]`` pairs, and *ranged* updates
    ``{"start": s, "rows": [{...}, ...]}`` (one contiguous span of new
    distributions, expanded to ``(s, rows[0]), (s+1, rows[1]), ...``).
    """
    if not isinstance(payload, list):
        raise ReproError("updates must be a JSON list")
    pairs = []
    for entry in payload:
        if isinstance(entry, dict) and "start" in entry:
            unknown = set(entry) - {"start", "rows"}
            if unknown or "rows" not in entry:
                raise ReproError(
                    "a ranged update carries exactly 'start' and 'rows'"
                )
            rows = entry["rows"]
            if not isinstance(rows, list) or not rows:
                raise ReproError("a ranged update's 'rows' must be a non-empty list")
            try:
                start = int(entry["start"])
            except (TypeError, ValueError):
                raise ReproError("a ranged update's 'start' must be an integer") from None
            pairs.extend((start + offset, row) for offset, row in enumerate(rows))
        elif isinstance(entry, dict):
            if "position" not in entry or "distribution" not in entry:
                raise ReproError(
                    "each update object needs 'position' and 'distribution' "
                    "(or 'start' and 'rows' for a ranged update)"
                )
            pairs.append((entry["position"], entry["distribution"]))
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            pairs.append((entry[0], entry[1]))
        else:
            raise ReproError(
                "each update must be an object with position/distribution, "
                "an object with start/rows, or a [position, distribution] pair"
            )
    return pairs
