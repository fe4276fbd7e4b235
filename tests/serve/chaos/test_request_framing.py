"""Chaos: the buffered request reader's seams.

The server parses a request out of what the connection has already
received and reads the stream only when that runs short, so the edges are
where one TCP segment ends: two requests in one segment, one request in
three, a head that arrives a byte at a time.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from tests.serve.chaos.conftest import QUERIES
from tests.serve.chaoskit import (
    assert_closed,
    connect,
    http_request,
    read_http_response,
    send_slowly,
)


def _query_request(text: str) -> bytes:
    return http_request("/query", method="POST", body=json.dumps({"query": text}).encode())


def test_two_requests_in_one_segment_get_two_answers_in_order(start_server, service) -> None:
    thread = start_server()
    sock = connect(thread.port)
    try:
        sock.sendall(_query_request(QUERIES[0]) + _query_request(QUERIES[1]))
        for text in QUERIES[:2]:
            response = read_http_response(sock, timeout=5.0)
            assert response is not None and response.status == 200
            payload = response.json()
            assert payload["query"] == text
            assert payload["result"]["total_matches"] == service.run(text).total_matches
    finally:
        sock.close()
    assert thread.server.metrics.endpoints["/query"].requests == 2


def test_request_split_across_three_segments_is_answered_once(start_server, service) -> None:
    thread = start_server()
    request = _query_request(QUERIES[2])
    head_end = request.index(b"\r\n\r\n") + 4
    cut = request.index(b"Content-Len") + 7  # mid-header-name
    sock = connect(thread.port)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        for segment in (request[:cut], request[cut:head_end], request[head_end:]):
            sock.sendall(segment)
            time.sleep(0.05)  # let the server see each segment on its own
        response = read_http_response(sock, timeout=5.0)
        assert response is not None and response.status == 200
        assert response.json()["result"]["total_matches"] == service.run(QUERIES[2]).total_matches
        # Once: nothing of the request is left over to be read as another.
        sock.settimeout(0.3)
        with pytest.raises(socket.timeout):
            sock.recv(4096)
        sock.sendall(http_request("/healthz"))
        response = read_http_response(sock, timeout=5.0)
        assert response is not None and response.status == 200
        assert response.json()["status"] == "ok"
    finally:
        sock.close()
    assert thread.server.metrics.endpoints["/query"].requests == 1
    assert thread.server.metrics.protocol_errors == 0


def test_one_byte_dribble_gets_its_408_at_the_header_timeout(start_server) -> None:
    # Every byte restarts the read, none may restart the clock.
    thread = start_server(header_timeout=0.4)
    sock = connect(thread.port)
    try:
        started = time.monotonic()
        send_slowly(sock, http_request("/healthz"), chunk_size=1, pause=0.05)
        response = read_http_response(sock, timeout=5.0)
        assert response is not None and response.status == 408
        assert "headers" in response.json()["error"]
        assert_closed(sock)
    finally:
        sock.close()
    # send_slowly stops at the first byte the closed socket refuses: the
    # whole exchange ends near the budget, not after the ~2.3 s the head
    # would take at this pace.
    assert time.monotonic() - started < 1.5
    assert thread.server.metrics.timeouts["header"] == 1
