"""Chaos: a connection reads into its server's one buffer.

Every read of a server lands in one buffer the server owns and is copied
into the connection's parser at once (``asyncio.BufferedProtocol``).  The
seams: a request one byte a read, a body larger than the buffer, two
requests in one read, and two servers at once, which must never share it.
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro.serve import server as server_module
from repro.serve.server import QueryServer, _Connection
from tests.serve.chaos.conftest import QUERIES
from tests.serve.chaoskit import connect, http_request, read_http_response, read_http_responses


def _query_request(text: str, request_id: str = "") -> bytes:
    headers = {"X-Request-ID": request_id} if request_id else None
    return http_request("/query", method="POST", body=json.dumps({"query": text}).encode(), headers=headers)


def _reads(monkeypatch) -> list:
    """The byte count of every ``buffer_updated`` from now on, in order."""
    counts: list = []
    updated = _Connection.buffer_updated

    def spy(connection, nbytes: int) -> None:
        counts.append(nbytes)
        updated(connection, nbytes)

    monkeypatch.setattr(_Connection, "buffer_updated", spy)
    return counts


def test_a_request_read_one_byte_at_a_time_is_answered_once(start_server, service, monkeypatch) -> None:
    monkeypatch.setattr(server_module, "_READ_BYTES", 1)
    reads = _reads(monkeypatch)
    thread = start_server()
    request = _query_request(QUERIES[2])
    sock = connect(thread.port)
    try:
        sock.sendall(request)
        response = read_http_response(sock, timeout=10.0)
        assert response is not None and response.status == 200
        assert response.json()["result"]["total_matches"] == service.run(QUERIES[2]).total_matches
    finally:
        sock.close()
    assert reads[: len(request)] == [1] * len(request)
    assert thread.server.metrics.endpoints["/query"].requests == 1
    assert thread.server.metrics.protocol_errors == 0


def test_a_batch_body_larger_than_the_read_buffer_is_answered_whole(start_server, service, monkeypatch) -> None:
    reads = _reads(monkeypatch)
    thread = start_server()
    body = json.dumps({"queries": QUERIES, "pad": "p" * (3 * server_module._READ_BYTES)}).encode()
    sock = connect(thread.port)
    try:
        sock.sendall(http_request("/query/batch", method="POST", body=body))
        response = read_http_response(sock, timeout=10.0)
        assert response is not None and response.status == 200
        totals = [answer["result"]["total_matches"] for answer in response.json()["results"]]
    finally:
        sock.close()
    assert totals == [result.total_matches for result in service.run_many(QUERIES)]
    assert len(reads) > 3 and max(reads) <= server_module._READ_BYTES
    assert sum(reads) > len(body)


class _Transport:
    """What a connection calls on its transport; keeps what is written."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.closing = False

    def set_write_buffer_limits(self, high=None, low=None) -> None:
        pass

    def write(self, data: bytes) -> None:
        self.written += data

    def is_closing(self) -> bool:
        return self.closing

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass

    def close(self) -> None:
        self.closing = True

    abort = close


def _answers(service, reads: list) -> bytes:
    """What one connection writes for *reads*, each one ``buffer_updated``."""

    async def serve() -> bytes:
        server = QueryServer(service)
        connection = _Connection(server)
        transport = _Transport()
        connection.connection_made(transport)
        for data in reads:
            connection.get_buffer(-1)[: len(data)] = data
            connection.buffer_updated(len(data))
            for _ in range(3):  # a pipelined request is served a loop turn later
                await asyncio.sleep(0)
        connection.connection_lost(None)
        return bytes(transport.written)

    return asyncio.run(serve())


def test_two_pipelined_requests_in_one_read_get_two_answers_in_order(service) -> None:
    first, second = _query_request(QUERIES[0], "one"), _query_request(QUERIES[1], "two")
    service.run_many(QUERIES[:2])  # resident: both are answered on the loop
    apart = _answers(service, [first]) + _answers(service, [second])
    together = _answers(service, [first + second])
    assert together == apart
    assert together.count(b"HTTP/1.1 200 OK") == 2 and together.index(b"one") < together.index(b"two")


def test_two_servers_at_once_share_no_read_buffer(start_server, service) -> None:
    threads = [start_server(), start_server()]
    buffers = [thread.server._read_buffer for thread in threads]
    assert buffers[0].obj is not buffers[1].obj
    expected = {text: service.run(text).total_matches for text in QUERIES}
    failures: list = []

    def client(port: int, texts: list) -> None:
        sock = connect(port)
        try:
            for _ in range(20):
                sock.sendall(b"".join(_query_request(text) for text in texts))
                responses = read_http_responses(sock, len(texts), timeout=10.0)
                if len(responses) != len(texts):
                    failures.append((port, "closed after", len(responses)))
                for text, response in zip(texts, responses):
                    payload = response.json()
                    if (payload["query"], payload["result"]["total_matches"]) != (text, expected[text]):
                        failures.append((port, text, payload))
        finally:
            sock.close()

    clients = [
        threading.Thread(target=client, args=(thread.port, texts))
        for thread in threads
        for texts in (QUERIES, QUERIES[::-1])
    ]
    for running in clients:
        running.start()
    for running in clients:
        running.join(timeout=60)
    assert not any(running.is_alive() for running in clients)
    assert not failures, failures[0]
