"""Chaos: connection floods and saturated executors are shed, not queued."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

from tests.serve.chaos.conftest import QUERIES
from tests.serve.chaoskit import (
    GatedService,
    assert_closed,
    connect,
    http_request,
    parse_prometheus,
    read_http_response,
    wait_for,
)


class TestConnectionCap:
    def test_flood_past_the_cap_is_shed_with_503(self, start_server) -> None:
        thread = start_server(max_connections=4, header_timeout=5.0)
        holders = [connect(thread.port) for _ in range(4)]
        try:
            wait_for(lambda: len(thread.server._connections) >= 4)
            shed_statuses = []
            for _ in range(3):
                extra = connect(thread.port)
                try:
                    response = read_http_response(extra, timeout=5.0)
                    assert response is not None
                    shed_statuses.append(response.status)
                    assert response.headers.get("retry-after") == "1"
                    assert "connection limit" in response.json()["error"]
                    assert_closed(extra)
                finally:
                    extra.close()
            assert shed_statuses == [503, 503, 503]
            assert thread.server.metrics.sheds["connections"] == 3
            # The holders were never evicted: the cap sheds newcomers only.
            holders[0].sendall(http_request("/healthz"))
            response = read_http_response(holders[0], timeout=5.0)
            assert response is not None and response.status == 200
        finally:
            for sock in holders:
                sock.close()


class TestQueueBound:
    def test_saturated_executor_sheds_with_503(self, start_server, service) -> None:
        # One worker, a queue bound of 2 and a frozen service: the first two
        # queries occupy the bound, every later one must be shed -- and once
        # the gate opens, the occupants complete correctly.
        gated = GatedService(service)
        thread = start_server(service_override=gated, max_queue=2, max_workers=1)
        expected = service.run(QUERIES[0]).total_matches
        statuses = []
        lock = threading.Lock()

        def client() -> None:
            request = urllib.request.Request(
                thread.url + "/query",
                data=json.dumps({"query": QUERIES[0]}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=30.0) as response:
                    payload = json.load(response)
                    assert payload["result"]["total_matches"] == expected
                    with lock:
                        statuses.append(response.status)
            except urllib.error.HTTPError as error:
                with lock:
                    statuses.append(error.code)
                assert error.code == 503
                assert error.headers.get("Retry-After") == "1"
                assert "saturated" in json.load(error)["error"]

        clients = [threading.Thread(target=client) for _ in range(6)]
        try:
            for worker in clients:
                worker.start()
            # All six reach the server while the gate is closed: exactly two
            # fit the bound, exactly four are shed.
            wait_for(lambda: thread.server.metrics.sheds["queue"] == 4)
        finally:
            gated.release()
            for worker in clients:
                worker.join(timeout=30.0)
        assert sorted(statuses) == [200, 200, 503, 503, 503, 503]
        assert thread.server.metrics.sheds["queue"] == 4


    def test_a_batch_longer_than_the_bound_is_a_413_not_a_shed(self, start_server) -> None:
        # It could never be admitted, idle server or not: telling the client
        # to retry (503 + Retry-After) would be a lie, and it is no shed.
        thread = start_server(max_queue=2)
        sock = connect(thread.port)
        try:
            body = json.dumps({"queries": QUERIES[:3]}).encode()
            sock.sendall(http_request("/query/batch", method="POST", body=body))
            response = read_http_response(sock, timeout=5.0)
            assert response is not None and response.status == 413
            assert "max_queue=2" in response.json()["error"]
            assert "retry-after" not in response.headers
            assert response.headers["connection"] == "keep-alive"
            # A batch of exactly the bound is admitted by the idle server.
            body = json.dumps({"queries": QUERIES[:2]}).encode()
            sock.sendall(http_request("/query/batch", method="POST", body=body))
            response = read_http_response(sock, timeout=5.0)
            assert response is not None and response.status == 200
        finally:
            sock.close()
        assert thread.server.metrics.sheds["queue"] == 0
        assert thread.server._inflight_queries == 0

    def test_a_batch_that_would_fit_an_idle_server_is_shed_with_503(
        self, start_server, service
    ) -> None:
        gated = GatedService(service)
        thread = start_server(service_override=gated, max_queue=2, max_workers=1)
        held, batch = connect(thread.port), connect(thread.port)
        try:
            body = json.dumps({"query": QUERIES[0]}).encode()
            held.sendall(http_request("/query", method="POST", body=body))
            wait_for(lambda: thread.server._inflight_queries == 1)
            body = json.dumps({"queries": QUERIES[:2]}).encode()  # 1 + 2 > 2
            batch.sendall(http_request("/query/batch", method="POST", body=body))
            response = read_http_response(batch, timeout=5.0)
            assert response is not None and response.status == 503
            assert response.headers.get("retry-after") == "1"
            assert "saturated (1 queries in flight, max_queue=2)" in response.json()["error"]
            assert thread.server.metrics.sheds["queue"] == 1
            assert thread.server._inflight_queries == 1  # the shed batch took nothing
        finally:
            gated.release()
            held.close()
            batch.close()


class TestDrainingSurface:
    def test_keepalive_connection_sees_healthz_draining_and_close(self, start_server) -> None:
        thread = start_server()
        health_sock = connect(thread.port)
        try:
            health_sock.sendall(http_request("/healthz"))
            response = read_http_response(health_sock, timeout=5.0)
            assert response is not None and response.status == 200
            assert response.json()["status"] == "ok"
            # Let the handler finish its between-requests bookkeeping and
            # park in readline: a handler still between "response written"
            # and "waiting for the next request" when the flag flips treats
            # the connection as drain-closable and hangs up instead.
            time.sleep(0.3)
            # Flip the drain flag the way QueryServer.drain does as its
            # first act (a real drain also closes the listener, which is
            # why this probe rides an existing keep-alive connection).
            thread.server._draining = True
            health_sock.sendall(http_request("/healthz"))
            response = read_http_response(health_sock, timeout=5.0)
            assert response is not None and response.status == 503
            assert response.json()["status"] == "draining"
            assert response.headers["connection"] == "close"
            assert_closed(health_sock)
            # The draining gauge flips in the same breath.  Rendered
            # in-process: a draining server closes idle keep-alive
            # connections as soon as their current response is out, so no
            # HTTP scrape is guaranteed to land (the exposition grammar over
            # HTTP is test_metrics_roundtrip's job).
            status, _, body = thread.server._handle_metrics()
            assert status == 200
            families = parse_prometheus(body.decode("utf-8"))
            assert families["repro_server_draining"].value() == 1
        finally:
            thread.server._draining = False  # hand a clean server to teardown
            health_sock.close()

    def test_new_connection_while_draining_is_shed(self, start_server) -> None:
        thread = start_server()
        thread.server._draining = True
        try:
            sock = connect(thread.port)
            try:
                response = read_http_response(sock, timeout=5.0)
                assert response is not None and response.status == 503
                assert "draining" in response.json()["error"]
                assert response.headers.get("retry-after") == "1"
                assert_closed(sock)
            finally:
                sock.close()
            assert thread.server.metrics.sheds["draining"] == 1
        finally:
            thread.server._draining = False
