"""Chaos: slow and silent clients are reaped by the read/handler timeouts."""

from __future__ import annotations

import json
import time

from tests.serve.chaos.conftest import QUERIES
from tests.serve.chaoskit import (
    GatedService,
    assert_closed,
    connect,
    http_request,
    read_http_response,
    send_slowly,
    wait_for,
)


class TestHeaderTimeout:
    def test_bare_connect_is_reaped_with_408(self, start_server) -> None:
        # The satellite guarantee: a client that connects and sends nothing
        # must not hold its connection slot forever.
        thread = start_server(header_timeout=0.3)
        sock = connect(thread.port)
        try:
            started = time.monotonic()
            response = read_http_response(sock, timeout=5.0)
            elapsed = time.monotonic() - started
            assert response is not None and response.status == 408
            assert "timed out" in response.json()["error"]
            assert response.headers["connection"] == "close"
            assert 0.2 <= elapsed < 3.0, f"reaped after {elapsed:.2f}s, not ~0.3s"
            assert_closed(sock)
        finally:
            sock.close()
        assert thread.server.metrics.timeouts["header"] == 1
        assert thread.server.metrics.idle_closed == 0

    def test_slow_loris_head_is_reaped_with_408(self, start_server) -> None:
        thread = start_server(header_timeout=0.3)
        sock = connect(thread.port)
        try:
            # ~45 bytes at 1 byte / 30 ms needs ~1.4 s: far past the budget.
            send_slowly(sock, http_request("/healthz"), chunk_size=1, pause=0.03)
            response = read_http_response(sock, timeout=5.0)
            assert response is not None and response.status == 408
            assert_closed(sock)
        finally:
            sock.close()
        assert thread.server.metrics.timeouts["header"] >= 1

    def test_idle_keepalive_is_closed_silently(self, start_server) -> None:
        # A connection that already served a request is NOT a timeout
        # victim: it is reaped like any idle keep-alive, with no response
        # bytes and its own counter.
        thread = start_server(header_timeout=0.3)
        sock = connect(thread.port)
        try:
            sock.sendall(http_request("/healthz"))
            response = read_http_response(sock, timeout=5.0)
            assert response is not None and response.status == 200
            assert response.headers["connection"] == "keep-alive"
            sock.settimeout(5.0)
            assert sock.recv(4096) == b"", "expected a silent close, got bytes"
        finally:
            sock.close()
        assert thread.server.metrics.idle_closed == 1
        assert thread.server.metrics.timeouts["header"] == 0

    def test_stalled_body_is_reaped_with_408(self, start_server) -> None:
        thread = start_server(header_timeout=0.3)
        sock = connect(thread.port)
        try:
            head = (
                b"POST /query HTTP/1.1\r\nHost: chaos\r\n"
                b"Content-Length: 50\r\n\r\nonly-"
            )
            sock.sendall(head)  # 45 bytes of body never arrive
            response = read_http_response(sock, timeout=5.0)
            assert response is not None and response.status == 408
            assert "body" in response.json()["error"]
            assert_closed(sock)
        finally:
            sock.close()
        assert thread.server.metrics.timeouts["body"] == 1


class TestHandlerTimeout:
    def test_frozen_handler_becomes_504(self, start_server, service) -> None:
        gated = GatedService(service)
        thread = start_server(service_override=gated, request_timeout=0.3, max_workers=1)
        try:
            sock = connect(thread.port)
            try:
                body = json.dumps({"query": QUERIES[0]}).encode()
                sock.sendall(http_request("/query", method="POST", body=body))
                response = read_http_response(sock, timeout=10.0)
                assert response is not None and response.status == 504
                assert "timed out" in response.json()["error"]
            finally:
                sock.close()
            wait_for(lambda: gated.entered >= 1)
            assert thread.server.metrics.timeouts["handler"] == 1
        finally:
            # Executor threads cannot be cancelled: open the gate so the
            # zombie query finishes and shutdown does not hang.
            gated.release()

    def test_frozen_batch_becomes_504_and_releases_its_queue_slots(
        self, start_server, service
    ) -> None:
        gated = GatedService(service)
        thread = start_server(service_override=gated, request_timeout=0.3, max_workers=1)
        try:
            sock = connect(thread.port)
            try:
                body = json.dumps({"queries": QUERIES[:3]}).encode()
                sock.sendall(http_request("/query/batch", method="POST", body=body))
                wait_for(lambda: thread.server._inflight_queries == 3)  # a slot a query
                response = read_http_response(sock, timeout=10.0)
                assert response is not None and response.status == 504
                assert "timed out" in response.json()["error"]
            finally:
                sock.close()
            assert gated.entered == 1  # one run_many, not three runs
            assert thread.server.metrics.timeouts["handler"] == 1
            assert thread.server._inflight_queries == 0
            assert thread.server.metrics.query_answers == {"loop": 0, "pool": 0}
        finally:
            gated.release()
