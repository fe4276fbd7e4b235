"""Chaos: graceful drain -- in-flight work finishes, nothing leaks.

The subprocess test at the bottom is the end-to-end version: a real
``repro serve`` process under real SIGTERM while a closed-loop load
generator is mid-flight, asserting exit code 0 and that every response the
server acked before dying was byte-for-byte correct.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve.loadgen import run_load
from repro.serve.server import result_to_dict
from tests.serve.chaos.conftest import QUERIES
from tests.serve.chaoskit import SlowService, connect, http_request, read_http_response, wait_for


def _serve_threads() -> list:
    """Executor worker threads of any QueryServer (not the loop thread)."""
    return [t for t in threading.enumerate() if t.name.startswith("repro-serve_")]


class TestDrain:
    def test_drain_finishes_inflight_and_leaks_nothing(self, start_server, service) -> None:
        slow = SlowService(service, delay=0.4)
        thread = start_server(service_override=slow, drain_timeout=10.0)
        sock = connect(thread.port)
        try:
            body = json.dumps({"query": QUERIES[0]}).encode()
            sock.sendall(http_request("/query", method="POST", body=body))
            wait_for(lambda: len(thread.server._busy) == 1)
            summary = thread.drain()
            assert summary["completed"] is True
            assert summary["forced_connections"] == 0
            # The in-flight request was answered, correctly, with a close.
            response = read_http_response(sock, timeout=5.0)
            assert response is not None and response.status == 200
            expected = json.loads(json.dumps(result_to_dict(service.run(QUERIES[0]))))
            assert response.json()["result"] == expected
            assert response.headers["connection"] == "close"
        finally:
            sock.close()
        # Leak audit: no connection tasks, no busy set, no executor threads.
        assert thread.server._connections == set()
        assert thread.server._busy == set()
        assert thread.server._executor is None
        assert _serve_threads() == []
        assert thread.server.draining is True

    def test_a_batch_racing_the_drain_is_answered_not_dropped(self, start_server, service) -> None:
        # A batch on the pool when the drain starts is a busy connection like
        # any other: it finishes, with Connection: close -- there is no
        # "batcher closed" window in which it could be rejected or lost.
        slow = SlowService(service, delay=0.4)
        thread = start_server(service_override=slow, drain_timeout=10.0)
        sock = connect(thread.port)
        try:
            body = json.dumps({"queries": QUERIES}).encode()
            sock.sendall(http_request("/query/batch", method="POST", body=body))
            wait_for(lambda: thread.server._inflight_queries == len(QUERIES))
            summary = thread.drain()
            assert summary["forced_connections"] == 0
            response = read_http_response(sock, timeout=5.0)
            assert response is not None and response.status == 200
            assert response.headers["connection"] == "close"
            payload = response.json()
            assert payload["count"] == len(QUERIES)
            for item, text in zip(payload["results"], QUERIES):
                expected = json.loads(json.dumps(result_to_dict(service.run(text))))
                assert (item["query"], item["result"]) == (text, expected)
        finally:
            sock.close()
        assert thread.server._inflight_queries == 0
        assert thread.server.metrics.sheds["draining"] == 0
        assert _serve_threads() == []

    def test_drain_reaps_idle_keepalive_without_loop_noise(
        self, start_server, caplog
    ) -> None:
        # Regression: cancelling an idle keep-alive handler used to leave the
        # task *cancelled*, and on 3.11 asyncio.streams' done-callback calls
        # task.exception() without a cancelled() guard -- every drain dumped
        # a spurious CancelledError into the loop's exception handler (which
        # logs to the "asyncio" logger).  A connection has no task to cancel
        # now: drain closes an idle one's socket like any other goodbye.
        thread = start_server()
        sock = connect(thread.port)
        try:
            sock.sendall(http_request("/healthz"))  # keep-alive: stays parked
            response = read_http_response(sock, timeout=5.0)
            assert response is not None and response.status == 200
            wait_for(lambda: len(thread.server._connections) == 1)
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                summary = thread.drain()
                time.sleep(0.2)  # let any straggling done-callbacks fire
            assert summary["completed"] is True
            assert summary["forced_connections"] == 0  # idle is reaped, not forced
            assert caplog.records == [], [r.getMessage() for r in caplog.records]
            sock.settimeout(5.0)
            try:
                assert sock.recv(4096) == b""  # a plain close, no junk
            except ConnectionError:
                pass
        finally:
            sock.close()
        assert thread.server._connections == set()
        assert _serve_threads() == []

    def test_drain_is_idempotent_and_refuses_new_connections(self, start_server) -> None:
        thread = start_server()
        first = thread.drain()
        assert first["completed"] is True
        second = thread.drain()
        assert second == {"drain_seconds": 0.0, "forced_connections": 0, "completed": True}
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", thread.port), timeout=2.0)

    def test_drain_force_closes_stragglers_at_the_deadline(self, start_server, service) -> None:
        slow = SlowService(service, delay=1.2)
        thread = start_server(
            service_override=slow, drain_timeout=0.2, request_timeout=30.0
        )
        sock = connect(thread.port)
        try:
            body = json.dumps({"query": QUERIES[0]}).encode()
            sock.sendall(http_request("/query", method="POST", body=body))
            wait_for(lambda: len(thread.server._busy) == 1)
            summary = thread.drain()
            assert summary["forced_connections"] == 1
            # The straggler's client gets a dropped connection, not junk.
            sock.settimeout(5.0)
            try:
                assert sock.recv(4096) == b""
            except ConnectionError:
                pass  # a reset is an equally clean statement of "gone"
        finally:
            sock.close()
        assert thread.server._connections == set()
        assert _serve_threads() == []


class TestSigterm:
    def test_sigterm_mid_traffic_exits_zero_with_correct_acked_responses(
        self, index_path, service
    ) -> None:
        repo_root = Path(__file__).resolve().parents[3]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", index_path,
                "--port", "0", "--drain-timeout", "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            assert proc.stdout is not None
            first_line = proc.stdout.readline()
            assert " on http://" in first_line, first_line
            url = first_line.rsplit(" on ", 1)[1].strip()

            expected = {
                text: json.loads(json.dumps(result_to_dict(service.run(text))))
                for text in QUERIES
            }
            outcome = {}

            def drive() -> None:
                # Every 200 the server acks before dying is verified against
                # the offline ground truth; post-drain connection failures
                # count as errors here, never as mismatches.
                outcome["report"] = run_load(
                    url, QUERIES, concurrency=2, duration=2.5, expected=expected
                )

            driver = threading.Thread(target=drive)
            driver.start()
            time.sleep(0.8)  # traffic is in full flight
            sigterm_at = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=15.0)
            drain_took = time.monotonic() - sigterm_at
            driver.join(timeout=15.0)
            assert not driver.is_alive()

            assert returncode == 0
            assert drain_took < 10.0, f"drain deadline blown: {drain_took:.1f}s"
            output = proc.stdout.read()
            assert "draining: listener closed" in output, output
            assert "drained in" in output, output

            report = outcome["report"]
            assert report.requests > 0
            assert report.mismatches == 0, "an acked response differed from ground truth"
        finally:
            if proc.poll() is None:  # pragma: no cover - only on assertion failure
                proc.kill()
                proc.wait(timeout=10.0)
