"""Chaos: clients that vanish mid-request or accept but never read."""

from __future__ import annotations

import json

from tests.serve.chaos.conftest import QUERIES
from tests.serve.chaoskit import (
    connect,
    http_request,
    never_reading_socket,
    read_http_response,
    wait_for,
)


class TestDisconnects:
    def test_disconnect_mid_body_is_a_clean_close(self, start_server) -> None:
        thread = start_server()
        sock = connect(thread.port)
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: chaos\r\nContent-Length: 100\r\n\r\nhalf"
        )
        sock.close()  # vanish with 96 body bytes owed
        wait_for(lambda: len(thread.server._connections) == 0)
        assert thread.server._server_errors == 0
        # The server is unharmed: the next client is served normally.
        follow_up = connect(thread.port)
        try:
            follow_up.sendall(http_request("/healthz"))
            response = read_http_response(follow_up, timeout=5.0)
            assert response is not None and response.status == 200
        finally:
            follow_up.close()

    def test_disconnect_mid_headers_is_a_clean_close(self, start_server) -> None:
        thread = start_server()
        sock = connect(thread.port)
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: cha")  # no terminator, ever
        sock.close()
        wait_for(lambda: len(thread.server._connections) == 0)
        assert thread.server._server_errors == 0
        assert thread.server.metrics.protocol_errors == 0

    def test_never_reading_client_is_aborted_by_write_timeout(self, start_server) -> None:
        # A sink that requests responses but never reads them fills the
        # write buffers until the transport pauses writing; the write timeout
        # must abort the connection instead of pinning it forever.
        thread = start_server(write_timeout=0.5, write_buffer=4096)
        sock = never_reading_socket(thread.port)
        try:
            # Pipeline a flood of /metrics requests (multi-KiB responses)
            # and never read a byte of the answers.
            sock.sendall(http_request("/metrics") * 2000)
            wait_for(lambda: thread.server.metrics.timeouts["write"] >= 1)
            wait_for(lambda: len(thread.server._connections) == 0)
        finally:
            sock.close()
        assert thread.server._server_errors == 0
        # The server still answers well-behaved clients afterwards.
        follow_up = connect(thread.port)
        try:
            body = json.dumps({"query": QUERIES[0]}).encode()
            follow_up.sendall(http_request("/query", method="POST", body=body))
            response = read_http_response(follow_up, timeout=10.0)
            assert response is not None and response.status == 200
        finally:
            follow_up.close()
