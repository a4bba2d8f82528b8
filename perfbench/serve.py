"""The program's HTTP server as a child process, and a small HTTP client.

The server is always ``python -m repro.cli serve-http`` on a store file or
directory, reached over real localhost sockets.  The client is the
benchmark's own (asyncio streams, HTTP/1.1 keep-alive, ``Content-Length``
bodies only), so a change to ``repro.service.client`` cannot move the
client side of a measurement.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import signal
import subprocess
import sys
import time

#: Seconds a server may take from launch to its ready line.
READY_TIMEOUT_S = 60.0
#: Seconds one request may take before it counts as a failed operation.
REQUEST_TIMEOUT_S = 20.0


class ServerProcess:
    """One ``serve-http`` child: launched, timed to its ready line, stopped."""

    def __init__(self, root: str, store: str, *, workers: int, warm_log: str) -> None:
        self.command = [
            sys.executable, "-m", "repro.cli", "serve-http", "--store", store,
            "--port", "0", "--workers", str(workers), "--warm-log", warm_log,
        ]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.cwd = root
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait for ``serving on http://host:port``; returns seconds."""
        started = time.perf_counter()
        self.process = subprocess.Popen(
            self.command, cwd=self.cwd, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(READY_TIMEOUT_S):
                self.stop()
                raise RuntimeError("serve-http printed no ready line in time")
            line = self.process.stdout.readline()
        ready = time.perf_counter() - started
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"unexpected serve-http output: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        return ready

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=20)
        process.stdout.close()

    @property
    def pid(self) -> int:
        return self.process.pid


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """Send one request, return ``(status, body)``; raises on timeout."""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        return await asyncio.wait_for(self._response(), REQUEST_TIMEOUT_S)

    async def _response(self) -> tuple[int, bytes]:
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def get_json(self, path: str) -> dict:
        status, body = await self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)


def summed_stats(payload: dict) -> dict:
    """Flatten ``/stats`` (one process or a cluster) into summed counters."""
    processes = list(payload["workers"].values()) if "workers" in payload else [payload]
    totals = {
        "hits": 0, "misses": 0, "queries": 0, "invalidations": 0, "rewarms": 0,
        "requests": 0, "shed": 0, "rate_limited": 0, "timeouts": 0,
        "batches": 0, "batched_requests": 0,
    }
    for process in processes:
        service, server = process["service"], process["server"]
        for key in ("hits", "misses", "queries", "invalidations", "rewarms"):
            totals[key] += service[key]
        for key in ("requests", "shed", "rate_limited", "timeouts"):
            totals[key] += server[key]
        totals["batches"] += server["batching"]["batches"]
        totals["batched_requests"] += server["batching"]["batched_requests"]
    supervisor = payload.get("supervisor", {})
    totals["respawns"] = supervisor.get("respawns", 0)
    return totals


def server_pids(server: ServerProcess, payload: dict) -> list[int]:
    """The serving processes: the supervisor and every worker, or the one server."""
    supervisor = payload.get("supervisor")
    if supervisor is None:
        return [server.pid]
    return [supervisor["pid"], *(int(pid) for pid in supervisor["pids"].values())]
