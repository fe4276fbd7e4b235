"""HTTP-layer observability: request ids, /debug/trace, error lines, slow log.

Each test starts its own :class:`ServerThread` over one module-scoped
index so tracing knobs (`trace`, `trace_log`, `slow_ms`) can vary per
test; the server owns the global tracer for its lifetime and must leave
tracing off when stopped.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core.index import SubtreeIndex
from repro.obs.sinks import validate_trace_log
from repro.serve.server import ServerThread
from repro.service.service import QueryService

QUERY = "NP(DT)(NN)"


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, small_corpus) -> str:
    path = str(tmp_path_factory.mktemp("tracing") / "plain.si")
    SubtreeIndex.build(small_corpus, mss=3, coding="root-split", path=path).close()
    return path


@pytest.fixture()
def service(index_path):
    service = QueryService.open(index_path)
    yield service
    service.close()


def _request(url: str, payload=None, headers=None, method=None):
    """(status, response headers, parsed JSON body) for one request."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json", **(headers or {})},
        method=method,
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.headers, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, error.headers, json.load(error)


class TestRequestIdPropagation:
    def test_client_request_id_is_echoed_untraced(self, service) -> None:
        with ServerThread(service) as thread:
            status, headers, _ = _request(
                thread.url + "/query", {"query": QUERY},
                headers={"X-Request-ID": "rid-echo-1"},
            )
            assert status == 200
            assert headers["X-Request-ID"] == "rid-echo-1"
        assert not obs.enabled()

    def test_missing_request_id_gets_a_generated_one(self, service) -> None:
        with ServerThread(service) as thread:
            _, headers, _ = _request(thread.url + "/query", {"query": QUERY})
            rid = headers["X-Request-ID"]
            assert len(rid) == 32
            int(rid, 16)

    def test_request_id_reaches_the_trace(self, service) -> None:
        with ServerThread(service, trace=True) as thread:
            status, headers, _ = _request(
                thread.url + "/query", {"query": QUERY},
                headers={"X-Request-ID": "rid-trace-1"},
            )
            assert status == 200
            assert headers["X-Request-ID"] == "rid-trace-1"
            _, _, debug = _request(thread.url + "/debug/trace?n=10")
        assert debug["enabled"] is True
        mine = [t for t in debug["traces"] if t["request_id"] == "rid-trace-1"]
        assert len(mine) == 1
        trace = mine[0]
        assert trace["name"] == "http_request"
        assert trace["attrs"]["path"] == "/query"
        assert trace["attrs"]["status"] == 200
        # The service's span tree nests under the HTTP root across the
        # executor hand-off, and stage times stay inside the request time.
        assert "query" in trace["stages"]
        assert trace["stages"]["query"] <= trace["duration_ms"] + 0.01

    def test_a_batch_nests_under_its_own_request(self, service) -> None:
        # A batch is one run_many with the request's context copied in: its
        # `batch` span is a child of that request's `http_request` root (and
        # of no other), on the pool first and on the loop once resident.
        queries = [QUERY, "VP(VBZ)"]
        with ServerThread(service, trace=True) as thread:
            for rid in ("rid-batch-pool", "rid-batch-loop"):
                status, headers, body = _request(
                    thread.url + "/query/batch", {"queries": queries},
                    headers={"X-Request-ID": rid},
                )
                assert status == 200 and body["count"] == 2
                assert headers["X-Request-ID"] == rid
            assert thread.server.metrics.query_answers == {"loop": 1, "pool": 1}
            _, _, debug = _request(thread.url + "/debug/trace?n=20")
        assert {t["name"] for t in debug["traces"]} == {"http_request"}  # no detached root
        for rid in ("rid-batch-pool", "rid-batch-loop"):
            (trace,) = [t for t in debug["traces"] if t["request_id"] == rid]
            assert trace["attrs"]["path"] == "/query/batch"
            (batch,) = [c for c in trace["spans"]["children"] if c["name"] == "batch"]
            assert batch["attrs"]["queries"] == 2
            assert batch["duration_us"] <= trace["spans"]["duration_us"]

    def test_a_served_query_span_names_the_normalized_text(self, service) -> None:
        # The handler prepares the text once and hands run() the prepared
        # query, whose normalized text is what the span records.
        with ServerThread(service, trace=True) as thread:
            status, _, body = _request(
                thread.url + "/query", {"query": " NP( DT )( NN ) "}, headers={"X-Request-ID": "rid-norm"}
            )
            assert status == 200 and body["query"] == " NP( DT )( NN ) "
            _, _, debug = _request(thread.url + "/debug/trace?n=10")
        (trace,) = [t for t in debug["traces"] if t["request_id"] == "rid-norm"]
        (query,) = [c for c in trace["spans"]["children"] if c["name"] == "query"]
        assert query["attrs"]["query"] == QUERY
        assert query["attrs"]["query_sha1"] == obs.query_hash(QUERY)

    def test_hostile_request_id_is_sanitised(self, service) -> None:
        with ServerThread(service) as thread:
            _, headers, _ = _request(
                thread.url + "/query", {"query": QUERY},
                headers={"X-Request-ID": "rid\tinject" + "x" * 300},
            )
            echoed = headers["X-Request-ID"]
            assert "\t" not in echoed and "\r" not in echoed and "\n" not in echoed
            assert len(echoed) <= 128


class TestDebugTraceEndpoint:
    def test_reports_disabled_when_untraced(self, service) -> None:
        with ServerThread(service) as thread:
            status, _, body = _request(thread.url + "/debug/trace")
            assert status == 200
            assert body == {"enabled": False, "traces": []}

    def test_returns_the_last_k_traces(self, service) -> None:
        with ServerThread(service, trace=True) as thread:
            for index in range(4):
                _request(
                    thread.url + "/query", {"query": QUERY},
                    headers={"X-Request-ID": f"rid-k-{index}"},
                )
            status, _, body = _request(thread.url + "/debug/trace?n=2")
        assert status == 200
        assert body["count"] == 2
        assert body["traces_finished"] >= 4
        assert [t["request_id"] for t in body["traces"]] == ["rid-k-2", "rid-k-3"]

    def test_rejects_bad_n(self, service) -> None:
        with ServerThread(service, trace=True) as thread:
            status, _, body = _request(thread.url + "/debug/trace?n=zero")
            assert status == 400 and "integer" in body["error"]
            status, _, body = _request(thread.url + "/debug/trace?n=0")
            assert status == 400 and ">= 1" in body["error"]

    def test_is_get_only(self, service) -> None:
        with ServerThread(service, trace=True) as thread:
            status, _, _ = _request(thread.url + "/debug/trace", {}, method="POST")
            assert status == 405


class TestServerErrorLogging:
    def test_forced_500_writes_one_error_line(self, service, tmp_path) -> None:
        log_path = str(tmp_path / "trace.jsonl")
        with ServerThread(service, trace_log=log_path) as thread:
            def boom(_query):
                raise RuntimeError("secret internal detail")

            service.run = boom
            try:
                status, headers, body = _request(
                    thread.url + "/query", {"query": QUERY},
                    headers={"X-Request-ID": "rid-err-1"},
                )
            finally:
                del service.run
            assert status == 500
            assert headers["X-Request-ID"] == "rid-err-1"
            # The body stays generic: no exception text, no traceback.
            assert body == {"error": "internal server error"}
        counts = validate_trace_log(log_path)
        assert counts.get("error") == 1
        errors = [
            record
            for record in map(json.loads, open(log_path, encoding="utf-8"))
            if record["kind"] == "error"
        ]
        assert len(errors) == 1
        error = errors[0]
        assert error["request_id"] == "rid-err-1"
        assert error["path"] == "/query"
        assert "RuntimeError" in error["error"]
        assert "secret internal detail" in error["traceback"]
        assert not obs.enabled()

    def test_500_count_is_surfaced_in_stats(self, service) -> None:
        with ServerThread(service, trace=True) as thread:
            def boom(_query):
                raise RuntimeError("boom")

            service.run = boom
            try:
                _request(thread.url + "/query", {"query": QUERY})
            finally:
                del service.run
            _, _, stats = _request(thread.url + "/stats")
        assert stats["server"]["tracing"]["errors"] == 1


class TestSlowQueryLog:
    def test_slow_queries_are_flagged_and_listed(self, service) -> None:
        # slow_ms=0 marks everything slow -- and by itself turns tracing on.
        with ServerThread(service, slow_ms=0.0) as thread:
            _request(
                thread.url + "/query", {"query": QUERY},
                headers={"X-Request-ID": "rid-slow-1"},
            )
            _, _, debug = _request(thread.url + "/debug/trace?n=5")
            _, _, stats = _request(thread.url + "/stats")
        mine = [t for t in debug["traces"] if t["request_id"] == "rid-slow-1"]
        assert mine and mine[0]["slow"] is True
        tracing = stats["server"]["tracing"]
        assert tracing["enabled"] is True
        assert tracing["slow_ms"] == 0.0
        slow_ids = {entry["request_id"] for entry in tracing["slow_queries"]}
        assert "rid-slow-1" in slow_ids
        assert all("duration_ms" in entry for entry in tracing["slow_queries"])

    def test_stats_tracing_block_when_untraced(self, service) -> None:
        with ServerThread(service) as thread:
            _, _, stats = _request(thread.url + "/stats")
        assert stats["server"]["tracing"] == {"enabled": False, "errors": 0}


class TestServerTracerOwnership:
    def test_server_owns_and_releases_the_tracer(self, service) -> None:
        assert not obs.enabled()
        with ServerThread(service, trace=True):
            assert obs.enabled()
        assert not obs.enabled()

    def test_server_leaves_an_external_tracer_alone(self, service) -> None:
        tracer = obs.enable(obs.Tracer())
        try:
            with ServerThread(service, trace=True) as thread:
                _request(thread.url + "/query", {"query": QUERY})
                assert obs.get_tracer() is tracer
            assert obs.enabled()  # still on: the server never owned it
        finally:
            obs.disable()
