"""Asyncio HTTP/1.1 JSON API over a shared :class:`QueryService` (stdlib only).

The network serving layer: one event loop, one ``QueryService``, and a
small, tested HTTP/1.1 request parser on top of ``asyncio.start_server``
(no web framework — the box is stdlib-only, and the protocol subset we need
is tiny).  Routes:

=======================  ====================================================
``POST /query``          one query object → one result (micro-batched)
``POST /query/batch``    ``{"queries": [...]}`` → per-item results/errors
``POST /update``         ``{"updates": [...]}`` → update report (serialized)
``GET /stats``           service + server counters, process memory (JSON)
``GET /healthz``         liveness probe
``GET /metrics``         Prometheus text format
=======================  ====================================================

Three layers above routing:

* **micro-batching** — concurrent ``POST /query`` requests arriving within
  a short window are coalesced into one ``query_many`` execution
  (:class:`~repro.service.batching.MicroBatcher`), so singleton HTTP
  requests get the vectorized batch path and in-batch deduplication;
* **robustness** — per-client token-bucket rate limiting, a bounded
  admission queue with load shedding (HTTP 429 + ``Retry-After``),
  per-request timeouts (HTTP 503), and graceful shutdown that stops
  accepting, flushes the pending micro-batch and drains in-flight requests
  before closing.  Updates and query batches share one writer lock, so an
  update never interleaves with a coalesced batch;
* **observability** — every :meth:`QueryService.stats` counter plus
  request/latency histograms, batch-size histogram and queue depth exported
  in Prometheus text format.

Request and response bodies are JSON; query/update payloads are exactly the
stdin serve loop's (:mod:`repro.service.protocol`), so a request is valid on
one transport iff it is valid on the other.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

from ..errors import ReproError
from .batching import MicroBatcher, RateLimiter
from .metrics import (
    BATCH_SIZE_BUCKETS,
    MetricsRegistry,
    render_service_stats,
)
from .protocol import parse_updates, query_from_payload

__all__ = ["HttpServer", "HttpError", "Request", "read_request", "run_server"]

#: Parser limits: request-line/header sizes are bounded by the stream limit.
MAX_HEADERS = 100
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Errors a malformed request payload can legitimately raise (HTTP 400).
_BAD_REQUEST_ERRORS = (ReproError, TypeError, ValueError, KeyError, OverflowError)


class HttpError(Exception):
    """A protocol-level error with the HTTP status to answer it with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """One parsed HTTP request (method, path, lowercase headers, raw body)."""

    __slots__ = ("method", "target", "path", "headers", "body")

    def __init__(self, method: str, target: str, headers: dict, body: bytes) -> None:
        self.method = method
        self.target = target
        self.path = target.split("?", 1)[0]
        self.headers = headers
        self.body = body

    def json(self):
        """The body parsed as JSON (:class:`HttpError` 400 when malformed)."""
        if not self.body:
            raise HttpError(400, "request body must be JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HttpError(400, f"invalid JSON body: {error}") from error


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one HTTP/1.x request from ``reader``.

    Returns ``None`` on a clean end-of-stream before the request line (the
    peer closed an idle keep-alive connection).  Raises :class:`HttpError`
    for malformed or unsupported requests, ``asyncio.IncompleteReadError`` /
    ``ConnectionResetError`` when the peer vanishes mid-request.
    """
    try:
        line = await reader.readline()
    except ValueError as error:  # request line over the stream limit
        raise HttpError(431, "request line too long") from error
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(505, f"unsupported protocol {version}")
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        try:
            raw = await reader.readline()
        except ValueError as error:
            raise HttpError(431, "header line too long") from error
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise asyncio.IncompleteReadError(partial=b"", expected=2)
        if len(headers) >= MAX_HEADERS:
            raise HttpError(431, "too many headers")
        name, separator, value = raw.decode("latin-1").partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line {name.strip()!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked request bodies are not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as error:
        raise HttpError(400, f"invalid Content-Length {length_text!r}") from error
    if length < 0:
        raise HttpError(400, "negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return Request(method.upper(), target, headers, body)


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload,
    *,
    keep_alive: bool,
    content_type: str = "application/json",
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> None:
    """Serialize one response (JSON unless ``payload`` is pre-rendered text)."""
    if isinstance(payload, (bytes, bytearray)):
        body = bytes(payload)
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = json.dumps(payload).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in extra_headers)
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)


class HttpServer:
    """The asyncio HTTP serving front-end over one :class:`QueryService`.

    Parameters
    ----------
    service:
        The shared :class:`~repro.service.QueryService`.
    batch_window / max_batch / batching:
        Micro-batching knobs (see :class:`MicroBatcher`); ``batching=False``
        is the per-request baseline mode.
    queue_limit:
        Maximum admitted-but-unanswered requests; beyond it new work is
        shed with HTTP 429 + ``Retry-After``.
    rate / burst:
        Per-client token-bucket rate limit in requests/second (0 disables).
    tenant_classes:
        Named quota tiers: ``{"gold": (500.0, 1000.0), "default": (50.0, 100.0)}``.
        Requests carrying an ``X-Tenant`` header are charged against their
        tenant's bucket at the class tier (unknown tenants use ``"default"``
        when configured); 429s are accounted per tenant in ``/metrics``.
    request_timeout:
        Per-request execution budget in seconds (HTTP 503 on expiry).
    drain_timeout:
        Graceful-shutdown budget for in-flight requests.
    cluster:
        Multi-worker adapter (see :mod:`repro.service.supervisor`).  When
        set, ``POST /update`` is forwarded to the supervisor (which applies
        it once, persists, and fans the reload out to every worker) and
        ``GET /metrics`` / ``GET /stats`` answer with cluster-wide
        aggregates instead of this process's counters.
    """

    def __init__(
        self,
        service,
        *,
        batch_window: float = 0.002,
        max_batch: int = 64,
        batching: bool = True,
        queue_limit: int = 256,
        rate: float = 0.0,
        burst: float | None = None,
        tenant_classes: dict | None = None,
        request_timeout: float = 10.0,
        drain_timeout: float = 5.0,
        cluster=None,
    ) -> None:
        self._service = service
        self._cluster = cluster
        self._write_lock = asyncio.Lock()
        self.metrics = MetricsRegistry()
        self._batch_sizes = self.metrics.histogram(
            "batch_size",
            "Requests coalesced per query_many execution",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._batcher = MicroBatcher(
            service,
            lock=self._write_lock,
            window=batch_window,
            max_batch=max_batch,
            enabled=batching,
            on_batch=self._batch_sizes.observe,
        )
        self._limiter = (
            RateLimiter(rate, burst, classes=tenant_classes)
            if rate > 0 or tenant_classes
            else None
        )
        self._queue_limit = max(1, int(queue_limit))
        self._request_timeout = float(request_timeout)
        self._drain_timeout = float(drain_timeout)
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._connection_tasks: set[asyncio.Task] = set()
        self._inflight = 0
        self._requests = 0
        self._shed = 0
        self._rate_limited = 0
        self._rate_limited_by_tenant: dict[str, int] = {}
        self._timeouts = 0
        self._stopping = False
        self.metrics.gauge(
            "http_inflight", lambda: self._inflight,
            "Admitted requests not yet answered",
        )
        self.metrics.gauge(
            "http_connections", lambda: len(self._connections),
            "Open client connections",
        )
        self.metrics.gauge(
            "http_batch_depth", lambda: self._batcher.depth,
            "Requests waiting in the current micro-batch window",
        )
        self.metrics.gauge(
            "http_queue_limit", lambda: self._queue_limit,
            "Admission queue capacity (load shedding beyond it)",
        )

    @property
    def write_lock(self) -> asyncio.Lock:
        """The single writer lock (updates, coalesced batches, index swaps)."""
        return self._write_lock

    # -- lifecycle ---------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0, *, sock=None
    ) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``.

        ``sock`` accepts an already-bound listening socket — a prefork worker
        passes the descriptor it inherited from the supervisor, so N workers
        accept from one shared socket and the port never rebinds.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=host, port=port
            )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def shutdown(self, *, drain: bool = True) -> dict:
        """Stop accepting, drain in-flight work, close every connection.

        Returns a small report (drained request count, whether the drain
        budget expired) so callers — the benchmark, the CLI — can assert the
        shutdown really was graceful.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Requests parked in the batch window are already admitted, so they
        # are counted in _inflight; adding the batcher depth would double
        # count them.
        drained = self._inflight
        expired = False
        if drain:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self._drain_timeout
            # Flush *inside* the loop, not once before it: a request that was
            # admitted (inflight incremented) but whose submit task has not
            # started yet reaches the batcher only after the first drain —
            # a single flush would leave it parked in a window nobody closes.
            await self._batcher.drain()
            while self._inflight > 0:
                if loop.time() >= deadline:
                    expired = True
                    break
                await asyncio.sleep(0.002)
                await self._batcher.drain()
        for writer in list(self._connections):
            writer.close()
        if self._connection_tasks:
            # Let every connection handler observe its EOF and exit before
            # the event loop goes away (otherwise loop teardown cancels them
            # mid-read and logs spurious CancelledErrors).
            await asyncio.wait(list(self._connection_tasks), timeout=1.0)
        return {"drained": drained, "drain_expired": expired}

    # -- connection handling -------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else str(peer)
        self._connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as error:
                    _write_response(
                        writer, error.status, {"error": error.message},
                        keep_alive=False,
                    )
                    await writer.drain()
                    break
                except (
                    asyncio.IncompleteReadError, ConnectionResetError, ValueError,
                ):
                    break
                if request is None:
                    break
                keep_alive = self._keep_alive(request)
                try:
                    await self._respond(request, client, writer, keep_alive)
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not keep_alive:
                    break
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._connection_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _keep_alive(self, request: Request) -> bool:
        if self._stopping:
            return False
        connection = request.headers.get("connection", "").lower()
        if "close" in connection:
            return False
        return True

    async def _respond(
        self,
        request: Request,
        client: str,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> None:
        started = time.perf_counter()
        route = f"{request.method} {request.path}"
        status, payload, content_type, extra = await self._dispatch(request, client)
        elapsed = time.perf_counter() - started
        self._requests += 1
        known = request.path in (
            "/query", "/query/batch", "/update", "/stats", "/healthz", "/metrics",
        )
        label = route if known else "unknown"
        self.metrics.counter(
            "http_requests_total", "Requests by route and status code",
            route=label, code=str(status),
        ).inc()
        self.metrics.histogram(
            "http_request_seconds", "Request latency by route", route=label,
        ).observe(elapsed)
        _write_response(
            writer, status, payload,
            keep_alive=keep_alive, content_type=content_type, extra_headers=extra,
        )
        await writer.drain()

    # -- routing ---------------------------------------------------------------
    async def _dispatch(
        self, request: Request, client: str
    ) -> tuple[int, object, str, tuple]:
        """Answer one request: ``(status, payload, content type, headers)``."""
        path, method = request.path, request.method
        try:
            if path == "/healthz":
                if method != "GET":
                    return self._method_not_allowed("GET")
                health = {
                    "status": "ok",
                    "generation": self._service.generation,
                    "stopping": self._stopping,
                    # Degraded = the last store persist failed and the
                    # cluster rolled back to its previous committed
                    # generation; reads still serve, writes answer 503.
                    "degraded": self.degraded,
                }
                if self._cluster is not None:
                    health["worker"] = self._cluster.number
                    health["pid"] = os.getpid()
                return 200, health, "application/json", ()
            if path == "/stats":
                if method != "GET":
                    return self._method_not_allowed("GET")
                if self._cluster is not None:
                    payload = await self._cluster.cluster_stats()
                    return 200, payload, "application/json", ()
                # Imported here: the bench package costs a single-process
                # server's start-up ~20 ms, and only this route needs it.
                from ..bench.measure import process_memory

                return 200, {
                    "service": self._service.stats(),
                    "server": self.server_stats(),
                    "memory": process_memory(),
                }, "application/json", ()
            if path == "/metrics":
                if method != "GET":
                    return self._method_not_allowed("GET")
                if self._cluster is not None:
                    text = await self._cluster.scrape()
                else:
                    text = self.metrics.render() + render_service_stats(
                        self._service.stats()
                    )
                return 200, text, "text/plain; version=0.0.4", ()
            if path == "/query":
                if method != "POST":
                    return self._method_not_allowed("POST")
                return await self._handle_query(request, client)
            if path == "/query/batch":
                if method != "POST":
                    return self._method_not_allowed("POST")
                return await self._handle_query_batch(request, client)
            if path == "/update":
                if method != "POST":
                    return self._method_not_allowed("POST")
                return await self._handle_update(request)
            return 404, {"error": f"unknown path {path!r}"}, "application/json", ()
        except HttpError as error:
            return error.status, {"error": error.message}, "application/json", ()
        except _BAD_REQUEST_ERRORS as error:
            return 400, {"error": str(error)}, "application/json", ()

    @staticmethod
    def _method_not_allowed(allowed: str) -> tuple[int, dict, str, tuple]:
        return (
            405,
            {"error": f"method not allowed; use {allowed}"},
            "application/json",
            (("Allow", allowed),),
        )

    def _admit(
        self, client: str, cost: float = 1.0, tenant: str | None = None
    ) -> tuple[int, dict, str, tuple] | None:
        """Rate-limit and load-shed checks; a response tuple when rejected."""
        if self._limiter is not None:
            retry = self._limiter.acquire(client, cost, tenant=tenant)
            if retry > 0.0:
                self._rate_limited += 1
                label = tenant if tenant is not None else "default"
                self._rate_limited_by_tenant[label] = (
                    self._rate_limited_by_tenant.get(label, 0) + 1
                )
                self.metrics.counter(
                    "http_rate_limited_total", "Requests rejected by rate limiting",
                    tenant=label,
                ).inc()
                return (
                    429,
                    {"error": "rate limit exceeded"},
                    "application/json",
                    (("Retry-After", str(max(1, round(retry)))),),
                )
        if self._inflight >= self._queue_limit:
            self._shed += 1
            self.metrics.counter(
                "http_load_shed_total", "Requests shed by the admission queue",
            ).inc()
            return (
                429,
                {"error": "server overloaded, request shed"},
                "application/json",
                (("Retry-After", "1"),),
            )
        return None

    async def _handle_query(
        self, request: Request, client: str
    ) -> tuple[int, object, str, tuple]:
        rejected = self._admit(client, tenant=request.headers.get("x-tenant"))
        if rejected is not None:
            return rejected
        payload = request.json()
        # Full admission-time validation: an invalid request is rejected
        # here, alone, instead of poisoning the batch it would join.
        query = self._service.validate(query_from_payload(payload))
        self._inflight += 1
        try:
            started = time.perf_counter()
            result, origin, generation, exec_micros = await asyncio.wait_for(
                self._batcher.submit(query), self._request_timeout
            )
            micros = 1e6 * (time.perf_counter() - started)
        except asyncio.TimeoutError:
            self._timeouts += 1
            self.metrics.counter(
                "http_timeouts_total", "Requests that exceeded the execution budget",
            ).inc()
            return (
                503,
                {"error": f"request timed out after {self._request_timeout:g}s"},
                "application/json",
                (("Retry-After", "1"),),
            )
        finally:
            self._inflight -= 1
        response = result.as_dict()
        response["cached"] = origin != "miss"
        # ``micros`` spans admission to answer; ``exec_micros`` is the
        # query_many call that answered it, the rest is batch window and lock.
        response["micros"] = round(micros, 3)
        response["exec_micros"] = round(exec_micros, 3)
        response["wait_micros"] = round(micros - exec_micros, 3)
        response["generation"] = generation
        return 200, response, "application/json", ()

    async def _handle_query_batch(
        self, request: Request, client: str
    ) -> tuple[int, object, str, tuple]:
        payload = request.json()
        if isinstance(payload, dict):
            entries = payload.get("queries")
        else:
            entries = payload
        if not isinstance(entries, list):
            raise HttpError(400, "a batch request needs a 'queries' list")
        rejected = self._admit(
            client,
            cost=max(1.0, float(len(entries))),
            tenant=request.headers.get("x-tenant"),
        )
        if rejected is not None:
            return rejected
        # Per-item validation: invalid entries answer with their own error
        # object; the valid remainder still executes as one batch.
        queries: list = []
        slots: list[int | None] = []
        errors: list[str | None] = []
        for entry in entries:
            try:
                if isinstance(entry, (str, list)):
                    query = self._service.validate(entry)
                else:
                    query = self._service.validate(query_from_payload(entry))
            except _BAD_REQUEST_ERRORS as error:
                slots.append(None)
                errors.append(str(error))
            else:
                slots.append(len(queries))
                errors.append(None)
                queries.append(query)
        self._inflight += 1
        try:
            async with self._write_lock:
                results, origins = (
                    self._service.query_many(queries, provenance=True)
                    if queries else ([], [])
                )
                generation = self._service.generation
        finally:
            self._inflight -= 1
        items = []
        for slot, error in zip(slots, errors):
            if slot is None:
                items.append({"error": error})
            else:
                item = results[slot].as_dict()
                item["cached"] = origins[slot] != "miss"
                items.append(item)
        return 200, {
            "count": len(items),
            "results": items,
            "generation": generation,
        }, "application/json", ()

    async def _handle_update(self, request: Request) -> tuple[int, object, str, tuple]:
        payload = request.json()
        if isinstance(payload, dict):
            entries = payload.get("updates")
        else:
            entries = payload
        pairs = parse_updates(entries)
        if self._cluster is not None:
            # Write-path coordination: the supervisor applies the update
            # once, persists the new store generation, and broadcasts the
            # reload; this worker's reply arrives only after *every* worker
            # acknowledged, so a query issued after the update response can
            # never see the previous generation.
            self._inflight += 1
            try:
                report = await self._cluster.update(pairs)
            except _BAD_REQUEST_ERRORS as error:
                return 400, {"error": str(error)}, "application/json", ()
            finally:
                self._inflight -= 1
            return 200, {"update": report}, "application/json", ()
        self._inflight += 1
        try:
            # The single writer lock: an update never interleaves with a
            # coalesced query batch (or another update).
            async with self._write_lock:
                try:
                    report = self._service.update(pairs)
                except _BAD_REQUEST_ERRORS as error:
                    return 400, {"error": str(error)}, "application/json", ()
        finally:
            self._inflight -= 1
        return 200, {"update": report}, "application/json", ()

    # -- introspection ----------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether this server is part of a degraded (rolled-back) cluster."""
        return bool(getattr(self._cluster, "degraded", False))

    def server_stats(self) -> dict:
        """Server-side counters for ``/stats`` and tests."""
        return {
            "requests": self._requests,
            "inflight": self._inflight,
            "connections": len(self._connections),
            "queue_limit": self._queue_limit,
            "shed": self._shed,
            "rate_limited": self._rate_limited,
            "rate_limited_by_tenant": dict(self._rate_limited_by_tenant),
            "timeouts": self._timeouts,
            "stopping": self._stopping,
            "degraded": self.degraded,
            "batching": self._batcher.stats(),
        }


async def run_server(
    service,
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    ready=None,
    **options,
) -> None:
    """Start an :class:`HttpServer` and serve until SIGINT/SIGTERM.

    ``ready(host, port)`` is called once the socket is bound (the CLI prints
    its "serving on" line through it, which the CI smoke test waits for).
    Shutdown is graceful: pending micro-batches are flushed and in-flight
    requests drained before the process exits.
    """
    server = HttpServer(service, **options)
    bound_host, bound_port = await server.start(host, port)
    if ready is not None:
        ready(bound_host, bound_port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    registered = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
            registered.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without loop signal handlers
    try:
        await stop.wait()
    finally:
        for signum in registered:
            loop.remove_signal_handler(signum)
        await server.shutdown()
