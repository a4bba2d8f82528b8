"""Prometheus-text-format metrics for the serving layer (stdlib only).

A tiny metrics kernel — counters, callback gauges and fixed-bucket
histograms with optional labels — that renders the `Prometheus text
exposition format <https://prometheus.io/docs/instrumenting/exposition_formats/>`_
consumed by any Prometheus-compatible scraper.  The HTTP server's
``GET /metrics`` route renders one :class:`MetricsRegistry` plus a typed
projection of the live :meth:`QueryService.stats` counters.

No external client library: the box this runs on is stdlib-only, and the
text format is small enough to emit directly.
"""

from __future__ import annotations

import math
from collections.abc import Callable

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "BATCH_SIZE_BUCKETS",
    "render_service_stats",
    "render_cluster_stats",
]

#: Request-latency buckets (seconds): 100µs .. 2.5s, log-ish spaced.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Micro-batch size buckets (requests coalesced into one ``query_many``).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing sample (one labelled series)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram (one labelled series).

    ``observe`` is O(#buckets) with per-bucket *non*-cumulative counts;
    rendering accumulates them into the Prometheus cumulative ``le`` form.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # trailing slot: +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for slot, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[slot] += 1
                return
        self.counts[-1] += 1


class MetricsRegistry:
    """Named metric families with labels, rendered as Prometheus text.

    Families are created lazily: ``counter``/``histogram`` return the live
    child series for a label set, ``gauge`` registers a zero-argument
    callback sampled at render time (the natural shape for queue depths and
    connection counts the server already tracks).
    """

    def __init__(self, namespace: str = "repro") -> None:
        self._namespace = namespace
        # name -> (type, help, {label-tuple: series-or-callback})
        self._families: dict[str, tuple[str, str, dict]] = {}

    def _family(self, name: str, kind: str, help_text: str) -> dict:
        full = f"{self._namespace}_{name}"
        family = self._families.get(full)
        if family is None:
            family = (kind, help_text, {})
            self._families[full] = family
        elif family[0] != kind:
            raise ValueError(f"metric {full} already registered as {family[0]}")
        return family[2]

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        series = self._family(name, "counter", help_text)
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        child = series.get(key)
        if child is None:
            child = series[key] = Counter()
        return child

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        series = self._family(name, "histogram", help_text)
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        child = series.get(key)
        if child is None:
            child = series[key] = Histogram(buckets)
        return child

    def gauge(
        self, name: str, fn: Callable[[], float], help_text: str = "", **labels: str
    ) -> None:
        series = self._family(name, "gauge", help_text)
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        series[key] = fn

    def render(self) -> str:
        """The Prometheus text exposition of every registered family."""
        lines: list[str] = []
        for name, (kind, help_text, series) in sorted(self._families.items()):
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, child in sorted(series.items()):
                if kind == "counter":
                    lines.append(
                        f"{name}{_format_labels(labels)} {_format_value(child.value)}"
                    )
                elif kind == "gauge":
                    lines.append(
                        f"{name}{_format_labels(labels)} {_format_value(float(child()))}"
                    )
                else:  # histogram
                    cumulative = 0
                    for slot, bound in enumerate((*child.buckets, math.inf)):
                        cumulative += child.counts[slot]
                        bucket_labels = (*labels, ("le", _format_value(bound)))
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(labels)} {_format_value(child.sum)}"
                    )
                    lines.append(f"{name}_count{_format_labels(labels)} {child.count}")
        return "\n".join(lines) + "\n"


#: ``QueryService.stats()`` keys that are monotone counters (the rest of the
#: numeric keys render as gauges).
_STATS_COUNTERS = (
    "queries", "hits", "cache_hits", "dedup_hits", "misses", "evictions",
    "updates", "invalidations",
)

_STATS_GAUGES = (
    "hit_rate", "entries", "capacity", "generation", "index_generation",
)


def render_service_stats(stats: dict, namespace: str = "repro") -> str:
    """One-scrape projection of :meth:`QueryService.stats` to Prometheus text.

    Called per scrape with a single ``stats()`` snapshot so every exported
    sample is from the same instant (wiring each key as its own callback
    gauge would re-snapshot the service once per metric).
    """
    lines: list[str] = []
    for key in _STATS_COUNTERS:
        name = f"{namespace}_service_{key}_total"
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_format_value(float(stats[key]))}")
    for key in _STATS_GAUGES:
        name = f"{namespace}_service_{key}"
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(float(stats[key]))}")
    name = f"{namespace}_service_cache_enabled"
    lines.append(f"# TYPE {name} gauge")
    lines.append(f"{name} {1 if stats['cache_enabled'] else 0}")
    return "\n".join(lines) + "\n"


#: Per-worker series exported with a ``worker`` label from each worker's
#: stats snapshot: (metric suffix, type, section, key).
_CLUSTER_WORKER_SERIES = (
    ("requests_total", "counter", "server", "requests"),
    ("rate_limited_total", "counter", "server", "rate_limited"),
    ("load_shed_total", "counter", "server", "shed"),
    ("timeouts_total", "counter", "server", "timeouts"),
    ("queries_total", "counter", "service", "queries"),
    ("hits_total", "counter", "service", "hits"),
    ("misses_total", "counter", "service", "misses"),
    ("invalidations_total", "counter", "service", "invalidations"),
)

#: Cluster-wide totals summed across workers: (metric name, section, key).
_CLUSTER_TOTALS = (
    ("http_requests_total", "server", "requests"),
    ("http_rate_limited_total", "server", "rate_limited"),
    ("http_load_shed_total", "server", "shed"),
    ("http_timeouts_total", "server", "timeouts"),
    ("service_queries_total", "service", "queries"),
    ("service_hits_total", "service", "hits"),
    ("service_cache_hits_total", "service", "cache_hits"),
    ("service_dedup_hits_total", "service", "dedup_hits"),
    ("service_misses_total", "service", "misses"),
    ("service_evictions_total", "service", "evictions"),
    ("service_invalidations_total", "service", "invalidations"),
)


def render_cluster_stats(
    workers: dict, supervisor: dict, namespace: str = "repro"
) -> str:
    """One ``/metrics`` scrape for the whole prefork cluster.

    ``workers`` maps worker numbers to the per-worker stats snapshots the
    supervisor collected (``{"service": ..., "server": ..., "memory": ...}``);
    ``supervisor`` carries the cluster-level counters (live workers,
    respawns, generation, applied updates).  The exposition has two layers:
    per-worker series labelled ``worker="N"`` (so a scraper can spot one
    worker running hot or cold) and *summed* totals under the same metric
    names the single-process server exports — dashboards keep working when
    ``--workers`` changes.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, samples: list[tuple[str, float]]) -> None:
        full = f"{namespace}_{name}"
        lines.append(f"# TYPE {full} {kind}")
        for label_text, value in samples:
            lines.append(f"{full}{label_text} {_format_value(float(value))}")

    emit("cluster_workers", "gauge", [("", supervisor.get("workers", len(workers)))])
    emit("cluster_respawns_total", "counter", [("", supervisor.get("respawns", 0))])
    emit("cluster_generation", "gauge", [("", supervisor.get("generation", 0))])
    emit("cluster_updates_total", "counter", [("", supervisor.get("updates", 0))])
    # 1 while the cluster serves a rolled-back generation after a persist
    # failure (writes answer 503 until a refresh succeeds again).
    emit(
        "cluster_degraded", "gauge", [("", 1 if supervisor.get("degraded") else 0)]
    )
    ordered = sorted(workers.items(), key=lambda item: int(item[0]))
    for suffix, kind, section, key in _CLUSTER_WORKER_SERIES:
        emit(
            f"cluster_worker_{suffix}",
            kind,
            [
                (f'{{worker="{number}"}}', snapshot.get(section, {}).get(key, 0))
                for number, snapshot in ordered
            ],
        )
    memory_series = (
        ("cluster_worker_rss_peak_bytes", "peak_rss_bytes"),
        ("cluster_worker_shared_bytes", "shared_bytes"),
        ("cluster_worker_private_bytes", "private_bytes"),
    )
    for name, key in memory_series:
        samples = [
            (f'{{worker="{number}"}}', snapshot["memory"][key])
            for number, snapshot in ordered
            if snapshot.get("memory", {}).get(key) is not None
        ]
        if samples:
            emit(name, "gauge", samples)
    for name, section, key in _CLUSTER_TOTALS:
        total = sum(
            snapshot.get(section, {}).get(key, 0) for _, snapshot in ordered
        )
        emit(name, "counter", [("", total)])
    tenants: dict[str, float] = {}
    for _, snapshot in ordered:
        for tenant, count in (
            snapshot.get("server", {}).get("rate_limited_by_tenant", {}).items()
        ):
            tenants[tenant] = tenants.get(tenant, 0) + count
    if tenants:
        emit(
            "http_rate_limited_by_tenant_total",
            "counter",
            [
                (f'{{tenant="{tenant}"}}', count)
                for tenant, count in sorted(tenants.items())
            ],
        )
    return "\n".join(lines) + "\n"
