"""Chaos: one connection while its request waits on the pool.

A request that needs the pool pauses reading on its connection until its
response is written.  So a hit pipelined behind it in the same segment,
which on a connection of its own would be answered on the loop at once,
waits its turn; and a client that keeps sending meanwhile is held back by
the kernel, not buffered by the server.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from tests.serve.chaos.conftest import QUERIES
from tests.serve.chaoskit import GatedService, connect, http_request, read_http_responses, wait_for

HIT, MISS = QUERIES[0], QUERIES[1]

#: The most asyncio's selector transport takes off a socket in one read.
_ONE_READ = 256 * 1024


def _query(text: str, **extra: object) -> bytes:
    return http_request("/query", method="POST", body=json.dumps({"query": text, **extra}).encode())


def test_a_hit_behind_a_pool_bound_miss_is_answered_in_request_order(
    held_service, start_server
) -> None:
    expected = held_service.run(HIT).total_matches  # now resident
    thread = start_server(service_override=held_service, max_workers=1)
    held_service.gate.clear()
    sock = connect(thread.port)
    try:
        sock.sendall(_query(MISS) + _query(HIT))  # one segment
        wait_for(lambda: held_service.held == 1)
        # The hit is in the buffer, resident, and still not answered first.
        sock.settimeout(0.3)
        with pytest.raises(socket.timeout):
            sock.recv(4096)
        assert thread.server.metrics.query_answers == {"loop": 0, "pool": 0}
        held_service.gate.set()
        first, second = read_http_responses(sock, 2)
        assert (first.status, first.json()["query"]) == (200, MISS)
        assert (second.status, second.json()["query"]) == (200, HIT)
        assert second.json()["result"]["total_matches"] == expected
        assert thread.server.metrics.query_answers == {"loop": 1, "pool": 1}
    finally:
        held_service.gate.set()
        sock.close()


def test_a_connection_waiting_on_the_pool_reads_no_further(start_server, service) -> None:
    gated = GatedService(service)
    thread = start_server(service_override=gated, max_workers=1)
    miss = _query(MISS)
    behind = _query(HIT, pad="x" * (4 * _ONE_READ))  # far more than one read
    sock = connect(thread.port)
    sender = threading.Thread(target=sock.sendall, args=(miss + behind,))
    try:
        sender.start()
        wait_for(lambda: gated.entered == 1)
        (connection,) = thread.server._connections
        time.sleep(0.3)  # the client pushes all the kernel takes
        assert not connection.transport.is_reading()
        assert len(connection.parser.buffer) <= len(miss) + _ONE_READ
        gated.release()
        responses = read_http_responses(sock, 2)
        assert [(response.status, response.json()["query"]) for response in responses] == [
            (200, MISS), (200, HIT)
        ]
        sender.join(10.0)
        assert not sender.is_alive()
    finally:
        gated.release()
        sock.close()
