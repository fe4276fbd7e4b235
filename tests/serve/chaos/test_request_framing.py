"""Chaos: the buffered request parser's seams.

The server parses a request out of what the connection has already
received each time a segment arrives, so the edges are where one TCP
segment ends: two requests in one segment, one request in three or in one
a byte, a large one a few bytes a segment, a head that arrives a byte at a
time.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.serve import framing
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


def _answered_once(thread, service, segments, pause: float) -> None:
    """Send *segments* one TCP segment each; the query is answered exactly once."""
    sock = connect(thread.port)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        for segment in segments:
            sock.sendall(segment)
            time.sleep(pause)  # let the server see each segment on its own
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


def test_request_split_across_three_segments_is_answered_once(start_server, service) -> None:
    thread = start_server()
    request = _query_request(QUERIES[2])
    head_end = request.index(b"\r\n\r\n") + 4
    cut = request.index(b"Content-Len") + 7  # mid-header-name
    _answered_once(thread, service, (request[:cut], request[cut:head_end], request[head_end:]), 0.05)


def test_request_sent_one_byte_per_segment_is_answered_once(start_server, service) -> None:
    # Every byte is one buffer_updated: the head and the body are parsed out
    # of the buffer only once their last byte is in, never twice.
    thread = start_server()
    request = _query_request(QUERIES[2])
    _answered_once(thread, service, [request[at:at + 1] for at in range(len(request))], 0.005)


class _HeadEndSpy:
    """Stands in for the parser's head-end pattern: counts the bytes it is
    asked to search and the heads it finds."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.searched = self.found = 0

    def search(self, buffer, start):
        self.searched += len(buffer) - start
        match = self.pattern.search(buffer, start)
        self.found += match is not None
        return match


def test_a_dribbled_request_costs_the_loop_its_bytes_not_its_head(
    start_server, service, monkeypatch
) -> None:
    # A ~22 KiB head and an 8 KiB body, 32 bytes a segment: each byte is
    # searched about once and the head parsed once -- not again for every
    # segment of the body -- while a second connection is served meanwhile.
    spy = _HeadEndSpy(framing._HEAD_END)
    monkeypatch.setattr(framing, "_HEAD_END", spy)
    thread = start_server()
    pad = {f"X-Pad-{n}": "p" * 100 for n in range(200)}
    body = json.dumps({"query": QUERIES[2], "pad": "b" * 8192}).encode()
    request = http_request("/query", method="POST", body=body, headers=pad)
    healthz = http_request("/healthz")
    slow, probe = connect(thread.port), connect(thread.port)
    slow.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    probes = []
    try:
        for at in range(0, len(request), 32):
            slow.sendall(request[at:at + 32])
            time.sleep(0.0005)  # let the server see the segments apart
            if at % 6400 == 0:
                started = time.monotonic()
                probe.sendall(healthz)
                response = read_http_response(probe, timeout=5.0)
                probes.append(time.monotonic() - started)
                assert response is not None and response.status == 200
        response = read_http_response(slow, timeout=5.0)
        assert response is not None and response.status == 200
        assert response.json()["result"]["total_matches"] == service.run(QUERIES[2]).total_matches
    finally:
        slow.close()
        probe.close()
    assert max(probes) < 1.0, probes
    assert spy.found == 1 + len(probes)  # one head each, found once
    assert spy.searched <= 2 * (len(request) + len(probes) * len(healthz))


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
