"""The HTTP serving layer: parser, routes, batching, robustness, soak.

Everything runs against a real ``asyncio.start_server`` socket on an
ephemeral localhost port — the same stack the ``serve-http`` CLI runs — via
the stdlib-only :class:`~repro.service.client.AsyncHttpClient`.  No
pytest-asyncio on this box: each test drives its own ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from test_oracle_equivalence import random_source

from repro.datasets.patterns import sample_valid_patterns
from repro.errors import PatternError
from repro.indexes import build_index
from repro.indexes.base import brute_force_occurrences
from repro.service import QueryService
from repro.service.batching import MicroBatcher, RateLimiter
from repro.service.client import AsyncHttpClient
from repro.service.metrics import Histogram, MetricsRegistry
from repro.service.server import HttpError, HttpServer, read_request

Z = 4.0
ELL = 4


@pytest.fixture(scope="module")
def source():
    return random_source(60, 2, 13)


@pytest.fixture(scope="module")
def index(source):
    return build_index(source, Z, kind="MWSA", ell=ELL)


def run(coroutine):
    return asyncio.run(coroutine)


async def started_server(index, **options):
    """A served QueryService on an ephemeral port plus one connected client."""
    service = QueryService(index)
    server = HttpServer(service, **options)
    host, port = await server.start("127.0.0.1", 0)
    client = await AsyncHttpClient.connect(host, port)
    return server, service, client, (host, port)


# -- the request parser -------------------------------------------------------


def parse_bytes(blob: bytes):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        return await read_request(reader)

    return run(scenario())


class TestRequestParser:
    def test_parses_method_path_headers_and_body(self):
        request = parse_bytes(
            b"POST /query?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\nhi"
        )
        assert request.method == "POST"
        assert request.target == "/query?x=1"
        assert request.path == "/query"
        assert request.headers["host"] == "h"
        assert request.body == b"hi"

    def test_clean_eof_returns_none(self):
        assert parse_bytes(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(HttpError) as error:
            parse_bytes(b"GARBAGE\r\n\r\n")
        assert error.value.status == 400

    def test_unsupported_protocol_version(self):
        with pytest.raises(HttpError) as error:
            parse_bytes(b"GET / HTTP/2\r\n\r\n")
        assert error.value.status == 505

    def test_chunked_bodies_rejected(self):
        with pytest.raises(HttpError) as error:
            parse_bytes(
                b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert error.value.status == 501

    def test_bad_content_length(self):
        with pytest.raises(HttpError) as error:
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n")
        assert error.value.status == 400

    def test_oversized_body_rejected(self):
        with pytest.raises(HttpError) as error:
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        assert error.value.status == 413

    def test_truncated_body_raises_incomplete_read(self):
        with pytest.raises(asyncio.IncompleteReadError):
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi")

    def test_json_body_errors_are_http_400(self):
        request = parse_bytes(
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\n{x}"
        )
        with pytest.raises(HttpError) as error:
            request.json()
        assert error.value.status == 400


# -- routes -------------------------------------------------------------------


class TestRoutes:
    def test_healthz_stats_metrics_and_404(self, index):
        async def scenario():
            server, service, client, _ = await started_server(index)
            health = await client.request("GET", "/healthz")
            assert health.status == 200 and health.json()["status"] == "ok"
            await client.request("POST", "/query", {"pattern": [0, 1, 0, 0]})
            stats = await client.request("GET", "/stats")
            assert stats.status == 200
            payload = stats.json()
            assert payload["service"]["queries"] == 1
            assert payload["server"]["requests"] >= 2
            metrics = await client.request("GET", "/metrics")
            assert metrics.status == 200
            assert metrics.headers["content-type"].startswith("text/plain")
            text = metrics.text
            assert "# TYPE repro_http_requests_total counter" in text
            assert "# TYPE repro_http_request_seconds histogram" in text
            assert "repro_service_queries_total 1" in text
            assert "repro_service_hit_rate 0" in text
            missing = await client.request("GET", "/nope")
            assert missing.status == 404
            wrong = await client.request("GET", "/query")
            assert wrong.status == 405
            assert wrong.headers["allow"] == "POST"
            await client.close()
            await server.shutdown()

        run(scenario())

    def test_query_answers_match_index_and_report_cache(self, index):
        async def scenario():
            server, service, client, _ = await started_server(index)
            pattern = [0, 1, 0, 0]
            first = await client.request("POST", "/query", {"pattern": pattern})
            assert first.status == 200
            body = first.json()
            assert body["positions"] == index.locate(pattern)
            assert body["cached"] is False
            second = await client.request("POST", "/query", {"pattern": pattern})
            assert second.json()["cached"] is True
            modes = await client.request(
                "POST", "/query", {"pattern": pattern, "mode": "topk", "k": 2}
            )
            assert modes.status == 200
            ranked = modes.json()
            assert list(zip(ranked["positions"], ranked["probabilities"])) == (
                index.topk(pattern, 2)
            )
            await client.close()
            await server.shutdown()

        run(scenario())

    def test_invalid_requests_are_400_never_5xx(self, index):
        async def scenario():
            server, service, client, _ = await started_server(index)
            bad = [
                {"pattern": [0.9, 1, 0, 0]},          # non-integral codes
                {"pattern": [-0.5, 1, 0, 0]},         # negative non-integral
                {"pattern": [9, 1, 0, 0]},            # out of alphabet range
                {"pattern": [0]},                     # below ell
                {"pattern": ""},                      # empty
                {"pattern": [0, 1, 0, 0], "zs": []},  # empty sweep
                {"pattern": [0, 1, 0, 0], "z": 99},   # looser than index z
                {"pattern": [0, 1, 0, 0], "bogus": 1},
                {"paterns": [0, 1, 0, 0]},            # typo'd field
                {"pattern": [0, 1, 0, 0], "mode": "nope"},
            ]
            for payload in bad:
                response = await client.request("POST", "/query", payload)
                assert response.status == 400, payload
                assert "error" in response.json()
            # The service was never touched by a rejected request.
            assert service.stats()["queries"] == 0
            raw = await client.request("POST", "/query", "not an object")
            assert raw.status == 400
            await client.close()
            await server.shutdown()

        run(scenario())

    def test_malformed_query_parameters_are_400_naming_the_field(self, index):
        """Once coerced: ``zs="24"`` swept z = 2 and 4, ``z=true`` ran at 1.0, ``k=2.7`` at 2."""

        async def scenario():
            server, service, client, _ = await started_server(index)
            pattern = [0, 1, 0, 0]
            cases = (
                ({"pattern": pattern, "zs": "24"}, "zs"),
                ({"pattern": pattern, "z": True}, "z"),
                ({"pattern": pattern, "mode": "topk", "k": 2.7}, "k"),
            )
            for payload, field in cases:
                response = await client.request("POST", "/query", payload)
                assert response.status == 400, payload
                assert response.json()["error"].startswith(f"{field} must be"), payload
            batch = await client.request(
                "POST", "/query/batch", {"queries": [payload for payload, _ in cases]}
            )
            assert batch.status == 200
            for item, (_, field) in zip(batch.json()["results"], cases):
                assert item["error"].startswith(f"{field} must be")
            assert service.stats()["queries"] == 0
            await client.close()
            await server.shutdown()

        run(scenario())

    def test_batch_endpoint_mixes_results_and_per_item_errors(self, index):
        async def scenario():
            server, service, client, _ = await started_server(index)
            pattern = [0, 1, 0, 0]
            response = await client.request(
                "POST",
                "/query/batch",
                {"queries": [
                    pattern,
                    {"pattern": pattern, "mode": "count"},
                    [0.9, 1, 0, 0],
                    pattern,
                ]},
            )
            assert response.status == 200
            items = response.json()["results"]
            assert items[0]["positions"] == index.locate(pattern)
            assert items[0]["cached"] is False
            assert items[1]["count"] == index.count(pattern)
            assert "error" in items[2]
            assert items[3]["cached"] is True  # in-batch duplicate
            await client.close()
            await server.shutdown()

        run(scenario())

    def test_update_endpoint_reweights_and_invalidates(self, index):
        async def scenario():
            server, service, client, _ = await started_server(index)
            pattern = [0, 1, 0, 0]
            before = await client.request("POST", "/query", {"pattern": pattern})
            assert before.status == 200
            response = await client.request(
                "POST",
                "/update",
                {"updates": [{"position": 1, "distribution": {"A": 0.5, "B": 0.5}}]},
            )
            assert response.status == 200
            report = response.json()["update"]
            assert report["positions"] == [1]
            after = await client.request("POST", "/query", {"pattern": pattern})
            assert after.json()["positions"] == index.locate(pattern)
            health = await client.request("GET", "/healthz")
            assert health.json()["generation"] == 1
            malformed = await client.request(
                "POST", "/update", {"updates": [{"position": 999}]}
            )
            assert malformed.status == 400
            await client.close()
            await server.shutdown()

        run(scenario())

    def test_interleaved_clients_report_correct_cached_flags(self, index):
        """Per-request provenance, not a global hit-counter delta."""

        async def scenario():
            server, service, client_a, address = await started_server(
                index, batching=False
            )
            client_b = await AsyncHttpClient.connect(*address)
            one, two = [0, 1, 0, 0], [1, 0, 1, 1]
            # Interleave two clients on two patterns: miss, miss, hit, hit.
            flags = []
            for client, pattern in (
                (client_a, one), (client_b, two), (client_a, one), (client_b, two),
            ):
                response = await client.request("POST", "/query", {"pattern": pattern})
                flags.append(response.json()["cached"])
            assert flags == [False, False, True, True]
            await client_a.close()
            await client_b.close()
            await server.shutdown()

        run(scenario())


# -- batching, robustness ------------------------------------------------------


class TestMicroBatching:
    def test_concurrent_singletons_coalesce(self, index):
        async def scenario():
            server, service, client, address = await started_server(
                index, batch_window=0.005, max_batch=64
            )
            await client.close()

            async def worker(pattern):
                worker_client = await AsyncHttpClient.connect(*address)
                responses = []
                for _ in range(5):
                    response = await worker_client.request(
                        "POST", "/query", {"pattern": pattern}
                    )
                    responses.append(response)
                await worker_client.close()
                return responses

            patterns = [[0, 1, 0, 0], [1, 0, 1, 1], [0, 0, 1, 0], [1, 1, 0, 0]]
            all_responses = await asyncio.gather(
                *(worker(pattern) for pattern in patterns for _ in range(2))
            )
            for responses, pattern in zip(
                all_responses, [p for p in patterns for _ in range(2)]
            ):
                for response in responses:
                    assert response.status == 200
                    assert response.json()["positions"] == index.locate(pattern)
            batching = server.server_stats()["batching"]
            assert batching["largest_batch"] > 1  # coalescing happened
            assert batching["batched_requests"] == 40
            await server.shutdown()

        run(scenario())

    def test_batching_disabled_is_per_request(self, index):
        async def scenario():
            server, service, client, _ = await started_server(index, batching=False)
            for _ in range(3):
                response = await client.request(
                    "POST", "/query", {"pattern": [0, 1, 0, 0]}
                )
                assert response.status == 200
            batching = server.server_stats()["batching"]
            assert batching["enabled"] is False
            assert batching["largest_batch"] == 1
            await client.close()
            await server.shutdown()

        run(scenario())

    @pytest.mark.parametrize("batching", [True, False])
    def test_micros_split_into_wait_and_exec(self, index, batching):
        async def scenario():
            server, _, client, _ = await started_server(
                index, batching=batching, batch_window=0.002
            )
            for pattern in ([0, 1, 0, 0], [1, 0, 1, 1], [0, 1, 0, 0]):
                response = await client.request("POST", "/query", {"pattern": pattern})
                assert response.status == 200
                body = response.json()
                assert body["exec_micros"] >= 0.0 and body["wait_micros"] >= 0.0
                assert abs(body["exec_micros"] + body["wait_micros"] - body["micros"]) <= 0.002
                if batching and not body["cached"]:
                    # A batched miss waits out the window before executing.
                    assert body["wait_micros"] > 0.0
            await client.close()
            await server.shutdown()

        run(scenario())

    def test_max_batch_flushes_early(self, index):
        async def scenario():
            service = QueryService(index)
            lock = asyncio.Lock()
            batcher = MicroBatcher(
                service, lock=lock, window=60.0, max_batch=4, enabled=True
            )
            # With a one-minute window, only the max-batch trigger can flush.
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(batcher.submit(service.validate([0, 1, 0, 0])) for _ in range(4))
                ),
                timeout=5.0,
            )
            assert [origin for _, origin, _, _ in results].count("miss") == 1
            assert batcher.stats()["largest_batch"] == 4

        run(scenario())

    def test_poisoned_batch_falls_back_per_request(self, index):
        """A request that fails in execution fails alone, not its neighbours."""

        async def scenario():
            service = QueryService(index)
            lock = asyncio.Lock()
            batcher = MicroBatcher(
                service, lock=lock, window=0.01, max_batch=8, enabled=True
            )
            from repro.indexes import Query

            good = Query([0, 1, 0, 0])
            # Bypasses admission validation on purpose: an invalid query
            # reaching the flush must only fail its own waiter.
            bad = Query([0.9, 1, 0, 0])
            results = await asyncio.gather(
                batcher.submit(good), batcher.submit(bad), return_exceptions=True
            )
            assert isinstance(results[1], PatternError)
            result, _, _, exec_micros = results[0]
            assert result.positions == index.locate([0, 1, 0, 0])
            assert exec_micros >= 0.0

        run(scenario())


class TestRobustness:
    def test_rate_limiting_answers_429_with_retry_after(self, index):
        async def scenario():
            server, service, client, _ = await started_server(
                index, rate=1.0, burst=2.0
            )
            statuses = []
            for _ in range(4):
                response = await client.request(
                    "POST", "/query", {"pattern": [0, 1, 0, 0]}
                )
                statuses.append(response.status)
                if response.status == 429:
                    assert int(response.headers["retry-after"]) >= 1
            assert statuses.count(200) == 2 and statuses.count(429) == 2
            assert server.server_stats()["rate_limited"] == 2
            health = await client.request("GET", "/healthz")
            assert health.status == 200  # introspection is never rate limited
            await client.close()
            await server.shutdown()

        run(scenario())

    def test_load_shedding_beyond_queue_limit(self, index):
        async def scenario():
            # A long window parks admitted requests in flight, so concurrent
            # requests beyond the queue limit must be shed with 429.
            server, service, client, address = await started_server(
                index, batch_window=0.25, max_batch=1024, queue_limit=3
            )
            await client.close()

            async def one_request():
                worker_client = await AsyncHttpClient.connect(*address)
                response = await worker_client.request(
                    "POST", "/query", {"pattern": [0, 1, 0, 0]}
                )
                await worker_client.close()
                return response

            responses = await asyncio.gather(*(one_request() for _ in range(10)))
            statuses = [response.status for response in responses]
            assert statuses.count(429) >= 1
            assert statuses.count(200) >= 3
            assert set(statuses) <= {200, 429}
            shed_responses = [r for r in responses if r.status == 429]
            assert all(r.headers.get("retry-after") == "1" for r in shed_responses)
            assert server.server_stats()["shed"] == statuses.count(429)
            await server.shutdown()

        run(scenario())

    def test_request_timeout_answers_503(self, index):
        async def scenario():
            server, service, client, _ = await started_server(
                index, batch_window=0.5, max_batch=1024, request_timeout=0.02
            )
            response = await client.request(
                "POST", "/query", {"pattern": [0, 1, 0, 0]}
            )
            assert response.status == 503
            assert "timed out" in response.json()["error"]
            assert server.server_stats()["timeouts"] == 1
            await client.close()
            await server.shutdown()

        run(scenario())

    def test_graceful_shutdown_drains_inflight_requests(self, index):
        async def scenario():
            # Requests parked in a long batch window are still answered when
            # shutdown flushes the batcher instead of dropping them.
            server, service, client, address = await started_server(
                index, batch_window=30.0, max_batch=1024
            )
            await client.close()

            async def one_request():
                worker_client = await AsyncHttpClient.connect(*address)
                response = await worker_client.request(
                    "POST", "/query", {"pattern": [0, 1, 0, 0]}
                )
                await worker_client.close()
                return response

            tasks = [asyncio.create_task(one_request()) for _ in range(5)]
            await asyncio.sleep(0.05)  # let them all hit the batch window
            report = await server.shutdown(drain=True)
            responses = await asyncio.gather(*tasks)
            assert all(response.status == 200 for response in responses)
            assert report["drained"] == 5
            assert report["drain_expired"] is False

        run(scenario())

    def test_malformed_http_gets_an_error_response(self, index):
        async def scenario():
            server, service, client, address = await started_server(index)
            await client.close()
            reader, writer = await asyncio.open_connection(*address)
            writer.write(b"NOT-HTTP\r\n\r\n")
            await writer.drain()
            line = await reader.readline()
            assert b"400" in line
            writer.close()
            await server.shutdown()

        run(scenario())


# -- metrics kernel ------------------------------------------------------------


class TestMetrics:
    def test_histogram_buckets_and_quantiles(self):
        histogram = Histogram((0.001, 0.01, 0.1))
        for value in (0.0005, 0.002, 0.002, 0.05, 5.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.counts == [1, 2, 1, 1]  # the last slot is +Inf

    def test_registry_renders_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("widgets_total", "Widgets", kind="a").inc()
        registry.counter("widgets_total", kind="b").inc(2)
        registry.gauge("depth", lambda: 3, "Depth")
        registry.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        text = registry.render()
        assert '# TYPE repro_widgets_total counter' in text
        assert 'repro_widgets_total{kind="a"} 1' in text
        assert 'repro_widgets_total{kind="b"} 2' in text
        assert 'repro_depth 3' in text
        assert 'repro_lat_bucket{le="2"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert 'repro_lat_count 1' in text

    def test_conflicting_metric_kind_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.histogram("thing")

    def test_rate_limiter_recycles_oldest_client(self):
        clock = iter(float(i) for i in range(1000))
        limiter = RateLimiter(1.0, 1.0, max_clients=2, clock=lambda: next(clock))
        assert limiter.acquire("a") == 0.0
        assert limiter.acquire("b") == 0.0
        assert limiter.acquire("c") == 0.0  # evicts a
        assert len(limiter._buckets) == 2


# -- the concurrency soak (mixed traffic + mid-stream update) ------------------


class TestConcurrencySoak:
    def test_soak_with_midstream_update(self, source):
        # A fresh index per run: the update below mutates the shared source.
        soak_source = random_source(60, 2, 29)
        soak_index = build_index(soak_source, Z, kind="MWSA", ell=ELL)
        valid_pool = [
            list(pattern)
            for pattern in sample_valid_patterns(soak_source, Z, m=ELL, count=6, seed=5)
        ]
        invalid_pool = [
            [0.9, 1, 0, 0], [9, 0, 1, 1], [0], [0, 1, 0, -2], "", [0.0, None, 1, 1],
        ]
        oracle_before = {
            json.dumps(pattern): brute_force_occurrences(soak_source, pattern, Z)
            for pattern in valid_pool
        }
        update = [{"position": 2, "distribution": {"A": 0.5, "B": 0.5}}]

        async def scenario():
            service = QueryService(soak_index)
            server = HttpServer(service, batch_window=0.001, max_batch=32)
            address = await server.start("127.0.0.1", 0)
            answers: list[tuple[str, list]] = []
            statuses: list[int] = []

            async def client_worker(worker: int):
                client = await AsyncHttpClient.connect(*address)
                for step in range(24):
                    if worker == 0 and step == 12:
                        response = await client.request(
                            "POST", "/update", {"updates": update}
                        )
                        statuses.append(response.status)
                        continue
                    if step % 4 == 3:
                        pattern = invalid_pool[(worker + step) % len(invalid_pool)]
                        response = await client.request(
                            "POST", "/query", {"pattern": pattern}
                        )
                        statuses.append(response.status)
                        assert response.status == 400
                    else:
                        pattern = valid_pool[(worker + step) % len(valid_pool)]
                        response = await client.request(
                            "POST", "/query", {"pattern": pattern}
                        )
                        statuses.append(response.status)
                        assert response.status == 200
                        answers.append(
                            (json.dumps(pattern), response.json()["positions"])
                        )
                await client.close()

            await asyncio.gather(*(client_worker(worker) for worker in range(6)))
            # Post-run oracle over the mutated source; every in-run answer
            # must match the pre- or post-update truth, final answers the
            # post-update truth exactly.
            oracle_after = {
                json.dumps(pattern): brute_force_occurrences(soak_source, pattern, Z)
                for pattern in valid_pool
            }
            client = await AsyncHttpClient.connect(*address)
            for pattern in valid_pool:
                response = await client.request(
                    "POST", "/query", {"pattern": pattern}
                )
                assert response.json()["positions"] == (
                    oracle_after[json.dumps(pattern)]
                )
            stats_response = await client.request("GET", "/stats")
            payload = stats_response.json()
            await client.close()
            await server.shutdown()
            return answers, statuses, payload

        answers, statuses, payload = run(scenario())
        assert all(status in (200, 400) for status in statuses)  # never a 5xx
        oracle_after = {
            json.dumps(pattern): brute_force_occurrences(soak_source, pattern, Z)
            for pattern in valid_pool
        }
        for key, positions in answers:
            assert positions in (oracle_before[key], oracle_after[key])
        service_stats = payload["service"]
        assert service_stats["queries"] == (
            service_stats["hits"] + service_stats["misses"]
        )
        assert service_stats["updates"] == 1
        server_stats = payload["server"]
        assert server_stats["shed"] == 0 and server_stats["timeouts"] == 0


# -- CLI wiring ---------------------------------------------------------------


class TestServeHttpCli:
    def test_parser_accepts_serve_http(self):
        from repro.cli import build_parser

        arguments = build_parser().parse_args(
            ["serve-http", "--dataset", "SARS", "--z", "4", "--ell", "8",
             "--port", "0", "--rate-limit", "50", "--no-batching"]
        )
        assert arguments.command == "serve-http"
        assert arguments.port == 0
        assert arguments.rate_limit == 50.0
        assert arguments.no_batching is True

    def test_parser_serve_http_worker_flags(self):
        from repro.cli import build_parser

        arguments = build_parser().parse_args(
            ["serve-http", "--dataset", "SARS", "--z", "4", "--ell", "8",
             "--shards", "2", "--build-workers", "2", "--workers", "3",
             "--warm-log", "patterns.log", "--warm-top", "10",
             "--tenant-class", "gold=100:200", "--tenant-class", "default=5"]
        )
        assert arguments.workers == 3           # serving processes
        assert arguments.build_workers == 2     # shard-build parallelism
        assert arguments.warm_log == "patterns.log"
        assert arguments.warm_top == 10
        assert arguments.tenant_class == ["gold=100:200", "default=5"]

    def test_parse_tenant_classes(self):
        from repro.cli import _parse_tenant_classes

        classes = _parse_tenant_classes(["gold=100:200", "free=2", "off=0"])
        assert classes["gold"] == (100.0, 200.0)
        assert classes["free"] == (2.0, 2.0)   # burst defaults to the rate
        assert classes["off"] == (0.0, 1.0)    # rate 0 = unlimited
        assert _parse_tenant_classes(None) is None
        assert _parse_tenant_classes([]) is None
        from repro.errors import ReproError

        for bad in ("noequals", "=5", "gold=abc", "gold=1:x"):
            with pytest.raises(ReproError):
                _parse_tenant_classes([bad])

    def test_load_warm_patterns(self, tmp_path):
        from repro.cli import _load_warm_patterns

        log = tmp_path / "warm.log"
        log.write_text(
            "ACGT\n"
            "\n"
            '{"pattern": [0, 1, 0, 0], "mode": "locate"}\n'
            "[1, 0, 1, 1]\n"
            "{broken json\n"
            '{"no_pattern_field": 1}\n'
        )
        patterns = _load_warm_patterns(str(log))
        assert patterns == ["ACGT", [0, 1, 0, 0], [1, 0, 1, 1]]
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            _load_warm_patterns(str(tmp_path / "missing.log"))


# -- per-tenant quota classes -------------------------------------------------


class TestTenantQuotas:
    def test_limiter_tiers_and_default_class(self):
        now = [0.0]
        limiter = RateLimiter(
            0.0,
            classes={"gold": (1000.0, 3.0), "default": (1000.0, 1.0)},
            clock=lambda: now[0],
        )
        # gold burst 3: three immediate requests pass, the fourth waits.
        waits = [limiter.acquire("c", tenant="gold") for _ in range(4)]
        assert waits[:3] == [0.0, 0.0, 0.0] and waits[3] > 0.0
        # an unknown tenant falls back to the 'default' class (burst 1).
        assert limiter.acquire("c", tenant="mystery") == 0.0
        assert limiter.acquire("c", tenant="mystery") > 0.0
        # tenants are isolated buckets: another tenant still has its burst.
        assert limiter.acquire("c", tenant="other") == 0.0

    def test_limiter_unlimited_class_and_per_client_fallback(self):
        now = [0.0]
        limiter = RateLimiter(
            1.0, 1.0, classes={"free": (0.0, 1.0)}, clock=lambda: now[0]
        )
        # rate 0 in a class means unlimited for that tenant.
        assert all(limiter.acquire("c", tenant="free") == 0.0 for _ in range(50))
        # no tenant header: the per-client bucket still applies.
        assert limiter.acquire("client-1") == 0.0
        assert limiter.acquire("client-1") > 0.0

    def test_http_429_accounting_per_tenant(self, index):
        async def scenario():
            server, service, client, _ = await started_server(
                index,
                # default burst 1 with a slow refill: the second request
                # inside the same test run is reliably rejected.
                tenant_classes={"gold": (1000.0, 100.0), "default": (0.5, 1.0)},
            )
            payload = {"pattern": [0, 1, 0, 0]}
            for _ in range(5):
                response = await client.request(
                    "POST", "/query", payload, headers={"X-Tenant": "gold"}
                )
                assert response.status == 200
            # the default class has burst 1: the second request is rejected.
            first = await client.request(
                "POST", "/query", payload, headers={"X-Tenant": "pleb"}
            )
            second = await client.request(
                "POST", "/query", payload, headers={"X-Tenant": "pleb"}
            )
            assert first.status == 200
            assert second.status == 429
            assert "retry-after" in second.headers
            stats = server.server_stats()
            assert stats["rate_limited_by_tenant"] == {"pleb": 1}
            metrics = await client.request("GET", "/metrics")
            assert 'repro_http_rate_limited_total{tenant="pleb"} 1' in metrics.text
            await client.close()
            await server.shutdown()

        run(scenario())


# -- generation-tagged responses ----------------------------------------------


class TestGenerationTags:
    def test_query_and_batch_responses_carry_generation(self, index):
        async def scenario():
            server, service, client, _ = await started_server(index)
            pattern = [0, 1, 0, 0]
            first = await client.request("POST", "/query", {"pattern": pattern})
            assert first.json()["generation"] == 0
            batch = await client.request(
                "POST", "/query/batch", {"queries": [pattern]}
            )
            assert batch.json()["generation"] == 0
            update = await client.request(
                "POST",
                "/update",
                {"updates": [{"position": 1, "distribution": {"A": 0.5, "B": 0.5}}]},
            )
            assert update.status == 200
            after = await client.request("POST", "/query", {"pattern": pattern})
            assert after.json()["generation"] == 1
            batch_after = await client.request(
                "POST", "/query/batch", {"queries": [pattern]}
            )
            assert batch_after.json()["generation"] == 1
            await client.close()
            await server.shutdown()

        run(scenario())
