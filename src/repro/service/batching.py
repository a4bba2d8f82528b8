"""Cross-request micro-batching and admission control for the HTTP server.

Two asyncio building blocks:

* :class:`MicroBatcher` — coalesces concurrent singleton requests into one
  :meth:`QueryService.query_many` call.  Requests arriving within a short
  window (or until a maximum batch size) share a single planner execution,
  so independent HTTP clients get the vectorized batch path and in-batch
  deduplication that previously required one caller to submit a whole batch
  themselves.  Execution happens under the server's single writer lock, so
  a coalesced batch never interleaves with an index update.
* :class:`TokenBucket` / :class:`RateLimiter` — classic token-bucket
  rate limiting, per client, with a bounded client table (the oldest idle
  client's bucket is recycled; an unbounded table would be a memory leak
  fed by spoofed addresses).

Both are plain asyncio, single event loop, no threads: the QueryService
calls are synchronous and atomic with respect to the loop, and the lock
makes the serialization explicit (and keeps it correct if execution ever
moves to a thread pool).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from collections.abc import Callable

__all__ = ["MicroBatcher", "TokenBucket", "RateLimiter"]

#: Default micro-batch collection window (seconds).
DEFAULT_WINDOW = 0.002

#: Default maximum requests coalesced into one execution.
DEFAULT_MAX_BATCH = 64


class MicroBatcher:
    """Coalesce concurrent :meth:`submit` calls into batched executions.

    The first request of a batch starts a window timer; requests arriving
    before it fires join the pending batch, and reaching ``max_batch``
    flushes immediately.  Each flush answers the whole batch with one
    ``query_many(..., provenance=True)`` call and resolves every waiter
    with its ``(result, origin, generation, exec_micros)`` tuple — the
    service generation is read under the same lock as the execution, so the
    tag can never name a generation the answer was not computed against,
    and ``exec_micros`` is the wall time of that ``query_many`` call (of the
    request's own call on the per-request fallback), so a caller can split
    its latency into waiting and executing.

    A request that fails *inside* a flush (despite admission-time
    validation) must not poison its co-batched neighbours: on a batch
    error the flush falls back to per-request execution, so exactly the
    failing requests see their exception.

    With ``enabled=False`` every submit executes immediately under the
    lock — the batching-off baseline the serving benchmark compares
    against.
    """

    def __init__(
        self,
        service,
        *,
        lock: asyncio.Lock,
        window: float = DEFAULT_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        enabled: bool = True,
        on_batch: Callable[[int], None] | None = None,
    ) -> None:
        self._service = service
        self._lock = lock
        self._window = max(0.0, float(window))
        self._max_batch = max(1, int(max_batch))
        self._enabled = bool(enabled)
        self._on_batch = on_batch
        self._pending: list[tuple[object, asyncio.Future]] = []
        self._timer: asyncio.Task | None = None
        self._batches = 0
        self._batched_requests = 0
        self._largest_batch = 0

    @property
    def enabled(self) -> bool:
        """Whether requests are being coalesced."""
        return self._enabled

    @property
    def depth(self) -> int:
        """Requests currently waiting for the window to close."""
        return len(self._pending)

    def stats(self) -> dict:
        """Batching counters for ``/stats`` and the benchmark report."""
        return {
            "enabled": self._enabled,
            "window_seconds": self._window,
            "max_batch": self._max_batch,
            "batches": self._batches,
            "batched_requests": self._batched_requests,
            "largest_batch": self._largest_batch,
            "mean_batch_size": (
                self._batched_requests / self._batches if self._batches else 0.0
            ),
        }

    async def submit(self, query):
        """Answer one request, coalescing it with concurrent ones.

        Returns ``(QueryResult, origin, generation, exec_micros)`` with
        origin one of ``"cache"`` / ``"dedup"`` / ``"miss"``; raises
        whatever the execution raised for *this* request.
        """
        if not self._enabled:
            async with self._lock:
                results, origins, exec_micros = self._execute([query])
                generation = self._service.generation
            self._batches += 1
            self._batched_requests += 1
            self._largest_batch = max(self._largest_batch, 1)
            if self._on_batch is not None:
                self._on_batch(1)
            return results[0], origins[0], generation, exec_micros
        future = asyncio.get_running_loop().create_future()
        self._pending.append((query, future))
        if len(self._pending) >= self._max_batch:
            self._cancel_timer()
            asyncio.ensure_future(self._flush())
        elif self._timer is None:
            self._timer = asyncio.ensure_future(self._window_flush())
        return await future

    async def drain(self) -> None:
        """Flush everything pending now (graceful-shutdown hook)."""
        self._cancel_timer()
        while self._pending:
            await self._flush()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    async def _window_flush(self) -> None:
        try:
            await asyncio.sleep(self._window)
        except asyncio.CancelledError:
            return
        self._timer = None
        await self._flush()

    async def _flush(self) -> None:
        batch, self._pending = self._pending, []
        if not batch:
            return
        async with self._lock:
            # Waiters that gave up (per-request timeout cancels the future)
            # still ride along in the execution; their slots are skipped when
            # the answers are distributed.
            queries = [query for query, _ in batch]
            try:
                results, origins, exec_micros = self._execute(queries)
            except Exception:
                self._resolve_individually(batch)
            else:
                generation = self._service.generation
                for (_, future), result, origin in zip(batch, results, origins):
                    if not future.done():
                        future.set_result((result, origin, generation, exec_micros))
        self._batches += 1
        self._batched_requests += len(batch)
        self._largest_batch = max(self._largest_batch, len(batch))
        if self._on_batch is not None:
            self._on_batch(len(batch))

    def _execute(self, queries: list) -> tuple[list, list, float]:
        """``query_many(..., provenance=True)`` plus its wall time in microseconds."""
        started = time.perf_counter()
        results, origins = self._service.query_many(queries, provenance=True)
        return results, origins, 1e6 * (time.perf_counter() - started)

    def _resolve_individually(
        self, batch: list[tuple[object, asyncio.Future]]
    ) -> None:
        """Fallback after a failed batch: each request succeeds or fails alone."""
        for query, future in batch:
            try:
                results, origins, exec_micros = self._execute([query])
            except Exception as error:  # noqa: BLE001 - routed to the waiter
                if not future.done():
                    future.set_exception(error)
            else:
                if not future.done():
                    future.set_result(
                        (results[0], origins[0], self._service.generation, exec_micros)
                    )


class TokenBucket:
    """One client's token bucket: ``rate`` tokens/second, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = now

    def acquire(self, now: float, cost: float = 1.0) -> float:
        """Take ``cost`` tokens; 0.0 when admitted, else seconds to retry."""
        self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        if self.rate <= 0.0:
            return 1.0
        return (cost - self.tokens) / self.rate


class RateLimiter:
    """Per-client token buckets with a bounded, LRU-recycled client table.

    ``classes`` maps tenant-class names to ``(rate, burst)`` tiers.  A
    request arriving with a tenant name (the ``X-Tenant`` header) is charged
    against one bucket per tenant *value* at that tenant's tier — unknown
    tenants fall back to the ``"default"`` class when one is configured, and
    to the per-client-IP bucket otherwise, so quota configuration can be
    rolled out one tenant at a time.  A tier rate of 0 (or below) marks the
    class unlimited.  Tenant and client buckets share the bounded LRU table.
    """

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        *,
        classes: dict[str, tuple[float, float]] | None = None,
        max_clients: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._rate = float(rate)
        self._burst = float(burst) if burst is not None else max(1.0, self._rate)
        self._classes = {
            str(name): (float(tier[0]), float(tier[1]))
            for name, tier in (classes or {}).items()
        }
        self._max_clients = max(1, int(max_clients))
        self._clock = clock
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    @property
    def classes(self) -> dict[str, tuple[float, float]]:
        """The configured tenant-class tiers (name → (rate, burst))."""
        return dict(self._classes)

    def acquire(self, client: str, cost: float = 1.0, tenant: str | None = None) -> float:
        """Charge the request; 0.0 when admitted, else a retry-after in seconds.

        With a ``tenant`` and configured classes the charge lands on the
        tenant's bucket at its class tier; otherwise on the per-``client``
        bucket at the default rate.
        """
        if tenant is not None and self._classes:
            tier = self._classes.get(tenant) or self._classes.get("default")
            if tier is not None:
                rate, burst = tier
                if rate <= 0.0:
                    return 0.0
                return self._charge(f"tenant\x00{tenant}", rate, burst, cost)
        if self._rate <= 0.0:
            return 0.0
        return self._charge(client, self._rate, self._burst, cost)

    def _charge(self, key: str, rate: float, burst: float, cost: float) -> float:
        now = self._clock()
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = TokenBucket(rate, burst, now)
            self._buckets[key] = bucket
            while len(self._buckets) > self._max_clients:
                self._buckets.popitem(last=False)
        self._buckets.move_to_end(key)
        return bucket.acquire(now, cost)
