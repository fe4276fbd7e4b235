"""Chaos: seeded fuzz of the HTTP parser -- 4xx JSON or clean close, always.

Every case opens a fresh connection, fires malformed bytes, half-closes its
send side (so the server never waits out a read timeout on our account) and
checks the response: a well-formed 4xx with a JSON error body, or a clean
connection close.  Never a 5xx, never a server-side traceback, and the
server must still answer a correct query when the barrage is over.
"""

from __future__ import annotations

import json
import random
import socket

from tests.serve.chaos.conftest import QUERIES
from tests.serve.chaoskit import connect, http_request, read_http_response

SEED = 20260807

_QUERY_BODY = json.dumps({"query": QUERIES[0]}).encode()
_TWO_LENGTHS = (
    b"POST /query HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: %d\r\n\r\n"
    % len(_QUERY_BODY)
) + _QUERY_BODY
_SAME_LENGTH_TWICE = (
    b"POST /query HTTP/1.1\r\nContent-Length: %d\r\ncontent-length:  %d \r\n\r\n"
    % (len(_QUERY_BODY), len(_QUERY_BODY))
) + _QUERY_BODY


def _padded_head(header_bytes: int, line_end: bytes = b"\r\n") -> bytes:
    """A GET whose one header line is *header_bytes* long, line end included."""
    pad = b"a" * (header_bytes - len(b"X-Pad: ") - len(line_end))
    return b"GET /healthz HTTP/1.1" + line_end + b"X-Pad: " + pad + line_end + line_end


def _handcrafted_cases() -> list:
    """Deterministic classics: every parser branch gets a visit."""
    return [
        b"",  # connect, say nothing, hang up
        b"\r\n",
        b"GET\r\n\r\n",  # one-token request line
        b"GET /healthz\r\n\r\n",  # two tokens
        b"GET /healthz HTTP/1.1 extra words\r\n\r\n",  # five tokens
        b"\x00\x01\x02\x03 binary garbage \xff\xfe\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nno-colon-header\r\n\r\n",  # tolerated: empty value
        b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /query HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n",
        b"POST /query HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n",
        b"POST /query HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n",
        b"POST /query HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
        b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"5\r\nhello\r\n0\r\n\r\n",  # chunked bodies are refused up front
        # Two framings of one request (the smuggling classic) are refused ...
        _TWO_LENGTHS,
        # ... the same length said twice is merely redundant.
        _SAME_LENGTH_TWICE,
        # Declared body far past max_body_bytes (2048 on the fuzz server).
        b"POST /query HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
        # Header block past max_header_bytes (1024 on the fuzz server).
        b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: " + b"a" * 2048 + b"\r\n\r\n",
        # Header lines of exactly max_header_bytes (the blank line is not
        # one of them), and one byte more.
        _padded_head(1024),
        _padded_head(1025),
        # A single line past the stream reader's 64 KiB line limit.
        b"GET /healthz HTTP/1.1\r\nX-Line: " + b"b" * (80 * 1024) + b"\r\n\r\n",
        # More headers than the 256-header cap.
        b"GET /healthz HTTP/1.1\r\n" + b"".join(
            b"X-H%d: v\r\n" % i for i in range(300)
        ) + b"\r\n",
        # Valid head, body is not JSON.
        http_request("/query", method="POST", body=b"this is not json"),
        # Valid head, JSON body of the wrong shape.
        http_request("/query", method="POST", body=b'{"nope": 1}'),
        http_request("/query", method="POST", body=b'{"query": ""}'),
        http_request("/query/batch", method="POST", body=b'{"queries": "not-a-list"}'),
        # Unknown path / wrong method.
        http_request("/definitely/not/a/route"),
        http_request("/query", method="BREW"),
        http_request("/metrics", method="POST"),
    ]


def _random_cases(rng: random.Random, count: int) -> list:
    cases = []
    alphabet = bytes(range(256))
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:  # pure binary noise
            cases.append(bytes(rng.choices(alphabet, k=rng.randrange(1, 200))))
        elif kind == 1:  # noise shaped like a request line
            tokens = [
                bytes(rng.choices(alphabet, k=rng.randrange(1, 12)))
                for _ in range(rng.randrange(1, 6))
            ]
            cases.append(b" ".join(tokens) + b"\r\n\r\n")
        elif kind == 2:  # valid-ish head with a corrupted content-length
            garbage = bytes(rng.choices(b"0123456789eE+-._ ", k=rng.randrange(1, 8)))
            cases.append(
                b"POST /query HTTP/1.1\r\nContent-Length: " + garbage + b"\r\n\r\nxx"
            )
        else:  # truncated at a random point of a valid request
            full = http_request(
                "/query", method="POST", body=json.dumps({"query": "NP(DT)(NN)"}).encode()
            )
            cases.append(full[: rng.randrange(1, len(full))])
    return cases


def _fire(port: int, payload: bytes):
    """Send one case, half-close, and read the verdict (response or close)."""
    sock = connect(port, timeout=10.0)
    try:
        try:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server hung up mid-send: that IS the clean close
        try:
            return read_http_response(sock, timeout=10.0)
        except OSError:
            return None  # reset instead of FIN: still a close, not a traceback
    finally:
        sock.close()


def test_parser_fuzz_never_breaks_the_server(start_server, service) -> None:
    thread = start_server(
        max_header_bytes=1024, max_body_bytes=2048, header_timeout=5.0
    )
    rng = random.Random(SEED)
    cases = _handcrafted_cases() + _random_cases(rng, 120)
    for number, payload in enumerate(cases):
        response = _fire(thread.port, payload)
        if response is not None:
            assert 200 <= response.status < 500, (
                f"case {number} ({payload[:60]!r}) -> {response.status}"
            )
            if response.status >= 400:
                assert "error" in response.json(), f"case {number}: non-JSON error body"

    # The barrage left no internal errors behind and the server still works.
    assert thread.server._server_errors == 0
    assert thread.server.metrics.protocol_errors > 0  # the fuzz did reach the parser
    sock = connect(thread.port)
    try:
        body = json.dumps({"query": QUERIES[0]}).encode()
        sock.sendall(http_request("/query", method="POST", body=body))
        response = read_http_response(sock, timeout=10.0)
        assert response is not None and response.status == 200
        assert response.json()["result"]["total_matches"] == service.run(QUERIES[0]).total_matches
    finally:
        sock.close()


def test_conflicting_content_lengths_are_a_400(start_server, service) -> None:
    # A dict of headers silently kept the last Content-Length (here the
    # true one: a 200); a proxy in front that keeps the first would then
    # disagree with us about where the next request starts.
    thread = start_server()
    response = _fire(thread.port, _TWO_LENGTHS)
    assert response is not None and response.status == 400
    assert "Content-Length" in response.json()["error"]
    assert response.headers["connection"] == "close"
    assert thread.server.metrics.protocol_errors == 1
    response = _fire(thread.port, _SAME_LENGTH_TWICE)
    assert response is not None and response.status == 200
    assert response.json()["result"]["total_matches"] == service.run(QUERIES[0]).total_matches


def test_a_superscript_content_length_is_a_400(start_server, service) -> None:
    # '\xb2' is '²' in the Latin-1 head: a digit to str.isdigit, not to
    # int(), whose ValueError killed the connection without a response.
    thread = start_server()
    for digit in (b"\xb2", b"\xb3", b"\xb9", b"1\xb2"):
        response = _fire(thread.port, b"POST /query HTTP/1.1\r\nContent-Length: " + digit + b"\r\n\r\nxx")
        assert response is not None and response.status == 400
        assert "Content-Length" in response.json()["error"]
    assert thread.server._server_errors == 0
    assert thread.server.metrics.protocol_errors == 4


def test_header_limit_counts_header_lines_to_the_byte(start_server) -> None:
    thread = start_server(max_header_bytes=1024)
    for line_end in (b"\r\n", b"\n"):
        response = _fire(thread.port, _padded_head(1024, line_end))
        assert response is not None and response.status == 200
        response = _fire(thread.port, _padded_head(1025, line_end))
        assert response is not None and response.status == 431
