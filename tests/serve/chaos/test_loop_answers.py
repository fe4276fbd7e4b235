"""Chaos: a resident result is answered on the event loop -- no pool, no slot.

Observable where it matters: with the one worker thread held by a miss (or
the whole queue bound full of held misses), a request whose result is
already in the service's result cache is still answered at once.  And the
converses, which keep the loop alive and the pool bounded: a duck-typed
wrapper around a service never takes that path, whatever it forwards; a
client pipelining hits cannot keep the loop to itself; and hits flowing
past the queue bound do not loosen it for the misses.
"""

from __future__ import annotations

import json
import threading
import time

from tests.serve.chaos.conftest import QUERIES
from tests.serve.chaoskit import GatedService, connect, http_request, read_http_response, wait_for

HIT, MISSES = QUERIES[0], QUERIES[1:]


def _post_query(sock, text: str) -> None:
    sock.sendall(
        http_request("/query", method="POST", body=json.dumps({"query": text}).encode())
    )


def _post_batch(sock, texts) -> None:
    sock.sendall(
        http_request("/query/batch", method="POST", body=json.dumps({"queries": texts}).encode())
    )


def test_hit_overtakes_a_miss_holding_the_only_worker(held_service, start_server) -> None:
    expected = held_service.run(HIT).total_matches  # now resident
    thread = start_server(service_override=held_service, max_workers=1)
    held_service.gate.clear()
    miss_sock, hit_sock = connect(thread.port), connect(thread.port)
    try:
        _post_query(miss_sock, MISSES[0])
        wait_for(lambda: held_service.held == 1)  # the one worker is taken
        _post_query(hit_sock, HIT)
        response = read_http_response(hit_sock, timeout=5.0)
        assert response is not None and response.status == 200
        assert response.json()["result"]["total_matches"] == expected
        assert not held_service.gate.is_set()  # answered before the gate opened
        assert thread.server.metrics.query_answers == {"loop": 1, "pool": 0}
        held_service.gate.set()
        response = read_http_response(miss_sock, timeout=10.0)
        assert response is not None and response.status == 200
        assert thread.server.metrics.query_answers == {"loop": 1, "pool": 1}
        hit_sock.sendall(http_request("/stats"))
        stats = read_http_response(hit_sock, timeout=5.0)
        assert stats is not None
        assert stats.json()["server"]["query_answers"] == {"loop": 1, "pool": 1}
    finally:
        held_service.gate.set()
        miss_sock.close()
        hit_sock.close()


def test_resident_batch_is_answered_on_the_loop_and_one_miss_sends_it_to_the_pool(
    held_service, start_server
) -> None:
    # /query/batch is /query over a list: the same residency rule decides.
    hits = [HIT, MISSES[0], HIT]
    expected = [result.total_matches for result in held_service.run_many(hits)]  # now resident
    thread = start_server(service_override=held_service, max_workers=1, max_queue=4)
    held_service.gate.clear()
    hold_sock, batch_sock = connect(thread.port), connect(thread.port)
    try:
        _post_query(hold_sock, MISSES[1])
        wait_for(lambda: held_service.held == 1)  # the one worker is taken
        _post_batch(batch_sock, hits)
        response = read_http_response(batch_sock, timeout=5.0)
        assert response is not None and response.status == 200
        payload = response.json()
        assert payload["count"] == 3 and [item["query"] for item in payload["results"]] == hits
        assert [item["result"]["total_matches"] for item in payload["results"]] == expected
        assert not held_service.gate.is_set()  # answered before the gate opened
        assert thread.server._inflight_queries == 1  # the batch took no slot
        assert thread.server.metrics.query_answers == {"loop": 1, "pool": 0}  # once a request
        # One miss among the hits: the whole batch is one run_many on the pool
        # and holds a queue slot per query while it is there.
        _post_batch(batch_sock, [HIT, MISSES[2], HIT])
        wait_for(lambda: thread.server._inflight_queries == 4)
        assert thread.server.metrics.query_answers == {"loop": 1, "pool": 0}
        held_service.gate.set()
        response = read_http_response(batch_sock, timeout=10.0)
        assert response is not None and response.status == 200
        assert response.json()["count"] == 3
        response = read_http_response(hold_sock, timeout=10.0)
        assert response is not None and response.status == 200
        assert thread.server.metrics.query_answers == {"loop": 1, "pool": 2}
        assert thread.server._inflight_queries == 0
    finally:
        held_service.gate.set()
        hold_sock.close()
        batch_sock.close()


def test_a_batch_of_misses_is_held_like_a_query(held_service, start_server) -> None:
    # A batch joins through the one path a query does, so the gate holds it:
    # its first join keeps the one worker while a hit is answered on the loop.
    expected = held_service.run(HIT).total_matches  # now resident
    thread = start_server(service_override=held_service, max_workers=1, max_queue=4)
    held_service.gate.clear()
    batch_sock, hit_sock = connect(thread.port), connect(thread.port)
    try:
        _post_batch(batch_sock, MISSES[:2])
        wait_for(lambda: held_service.held == 1)  # the batch's first join is held
        _post_query(hit_sock, HIT)
        response = read_http_response(hit_sock, timeout=5.0)
        assert response is not None and response.status == 200
        assert response.json()["result"]["total_matches"] == expected
        assert not held_service.gate.is_set()  # answered before the gate opened
        assert thread.server.metrics.query_answers == {"loop": 1, "pool": 0}
        held_service.gate.set()
        response = read_http_response(batch_sock, timeout=10.0)
        assert response is not None and response.status == 200
        assert [item["result"]["total_matches"] for item in response.json()["results"]] == [
            held_service.run(text).total_matches for text in MISSES[:2]
        ]
        assert held_service.held == 1 and held_service.stats().batches == 1
        assert thread.server.metrics.query_answers == {"loop": 1, "pool": 1}
    finally:
        held_service.gate.set()
        batch_sock.close()
        hit_sock.close()


def test_hit_takes_no_queue_slot(held_service, start_server) -> None:
    expected = held_service.run(HIT).total_matches
    thread = start_server(service_override=held_service, max_workers=1, max_queue=2)
    held_service.gate.clear()
    socks = [connect(thread.port) for _ in range(4)]
    try:
        for sock, text in zip(socks, MISSES[:2]):
            _post_query(sock, text)
        wait_for(lambda: thread.server._inflight_queries == 2)  # the bound is full
        _post_query(socks[2], MISSES[2])
        shed = read_http_response(socks[2], timeout=5.0)
        assert shed is not None and shed.status == 503  # a miss is shed ...
        _post_query(socks[3], HIT)
        response = read_http_response(socks[3], timeout=5.0)
        assert response is not None and response.status == 200  # ... a hit is not
        assert response.json()["result"]["total_matches"] == expected
        assert thread.server.metrics.sheds["queue"] == 1
        assert thread.server.metrics.query_answers["loop"] == 1
    finally:
        held_service.gate.set()
        for sock in socks:
            sock.close()


def test_hits_flowing_do_not_loosen_the_queue_bound(held_service, start_server) -> None:
    # Hits bypass the bounded queue; the misses mixed in with them must not.
    held_service.run(HIT)
    thread = start_server(service_override=held_service, max_workers=1, max_queue=2)
    held_service.gate.clear()
    # Distinct texts: every one a miss, none deduplicated by the plan cache.
    misses = [f"{label}({child})" for label in ("NP", "VP", "S") for child in ("DT", "NN", "VBZ")]
    hit_sock = connect(thread.port)
    miss_socks = [connect(thread.port) for _ in misses]
    try:
        for sock, text in zip(miss_socks, misses):
            _post_query(sock, text)
            _post_query(hit_sock, HIT)  # a hit between every two misses
            response = read_http_response(hit_sock, timeout=5.0)
            assert response is not None and response.status == 200
            assert thread.server._inflight_queries <= 2
        statuses = [read_http_response(sock, timeout=5.0).status for sock in miss_socks[2:]]
        assert statuses == [503] * (len(misses) - 2)  # all past the bound: shed
        assert thread.server._inflight_queries == 2 and held_service.held == 1
        assert thread.server.metrics.sheds["queue"] == len(misses) - 2
        held_service.gate.set()
        for sock in miss_socks[:2]:  # the two inside the bound are answered
            response = read_http_response(sock, timeout=10.0)
            assert response is not None and response.status == 200
        assert thread.server.metrics.query_answers == {"loop": len(misses), "pool": 2}
    finally:
        held_service.gate.set()
        hit_sock.close()
        for sock in miss_socks:
            sock.close()


def test_pipelined_hits_do_not_hold_the_loop(start_server, service) -> None:
    # Serving a pipelined hit never has to wait -- parsed from the buffer,
    # answered on the loop, written to an empty transport -- so without a
    # yield between requests one connection's pipeline would own the loop:
    # no other connection, accept or timer until it runs dry.
    service.run(HIT)
    thread = start_server()
    pipelined = 10_000
    body = json.dumps({"query": HIT}).encode()
    flood = http_request("/query", method="POST", body=body) * (pipelined - 1) + http_request(
        "/query", method="POST", body=body, headers={"Connection": "close"}
    )
    flood_sock, probe_sock = connect(thread.port), connect(thread.port)
    received = []

    def read_to_eof() -> None:
        while chunk := flood_sock.recv(1 << 20):
            received.append(chunk)

    sender = threading.Thread(target=flood_sock.sendall, args=(flood,))
    reader = threading.Thread(target=read_to_eof)
    latencies = []
    try:
        reader.start()
        sender.start()
        while reader.is_alive():
            started = time.monotonic()
            probe_sock.sendall(http_request("/healthz"))
            response = read_http_response(probe_sock, timeout=30.0)
            latencies.append(time.monotonic() - started)
            assert response is not None and response.status == 200
        sender.join(30.0)
        reader.join(30.0)
    finally:
        flood_sock.close()
        probe_sock.close()
    assert b"".join(received).count(b"HTTP/1.1 200 OK\r\n") == pipelined
    assert thread.server.metrics.query_answers["loop"] == pipelined
    # A held loop answers one or two probes, each after the whole flood
    # (about a second); a shared one answers hundreds, each in about a
    # millisecond.  The bounds sit far from both.
    latencies.sort()
    assert len(latencies) >= 20
    assert latencies[len(latencies) // 2] < 0.05
    assert latencies[-1] < 0.5


def test_a_wrapper_never_answers_on_the_loop(start_server, service) -> None:
    # GatedService forwards result_resident() to the real service, which
    # says yes; its own run() then blocks.  On the loop that would freeze
    # the server -- so the probe must not reach through a wrapper.
    service.run(HIT)
    gated = GatedService(service)
    assert gated.result_resident(service.prepare(HIT))
    thread = start_server(service_override=gated)
    query_sock, health_sock = connect(thread.port), connect(thread.port)
    try:
        _post_query(query_sock, HIT)
        wait_for(lambda: gated.entered == 1)  # held on a pool thread
        health_sock.sendall(http_request("/healthz"))
        health = read_http_response(health_sock, timeout=5.0)
        assert health is not None and health.status == 200  # the loop is alive
        gated.release()
        response = read_http_response(query_sock, timeout=10.0)
        assert response is not None and response.status == 200
        assert thread.server.metrics.query_answers == {"loop": 0, "pool": 1}
    finally:
        gated.release()
        query_sock.close()
        health_sock.close()
