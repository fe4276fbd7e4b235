"""Tests of the closed- and open-loop load generators against a real served index."""

from __future__ import annotations

import json

import pytest

from repro.core.index import SubtreeIndex
from repro.serve.loadgen import LoadgenReport, parse_base_url, run_load, run_open_loop
from repro.serve.server import ServerThread, open_server, result_to_dict
from repro.service.service import QueryService
from tests.serve.chaoskit import SlowService

QUERIES = ["NP(DT)(NN)", "VP(VBZ)", "S(NP)(VP)"]


@pytest.fixture(scope="module")
def served(tmp_path_factory, small_corpus):
    path = str(tmp_path_factory.mktemp("loadgen") / "corpus.si")
    SubtreeIndex.build(small_corpus, mss=3, coding="root-split", path=path).close()
    service, thread = open_server(path)
    try:
        yield service, thread.url
    finally:
        thread.stop()
        service.close()


class TestParseBaseUrl:
    def test_host_and_port(self) -> None:
        assert parse_base_url("http://127.0.0.1:8321") == ("127.0.0.1", 8321)
        assert parse_base_url("http://localhost") == ("localhost", 80)
        assert parse_base_url("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_rejects_non_http_and_hostless(self) -> None:
        with pytest.raises(ValueError, match="http"):
            parse_base_url("ftp://example.com")
        with pytest.raises(ValueError, match="host"):
            parse_base_url("http://")


class TestRunLoad:
    def test_closed_loop_reports_throughput_and_latency(self, served) -> None:
        service, url = served
        report = run_load(url, QUERIES, concurrency=2, duration=0.4)
        assert report.concurrency == 2
        assert report.duration_seconds == pytest.approx(0.4, abs=0.3)
        assert report.requests > 0
        assert report.errors == 0
        assert report.qps > 0
        assert len(report.latencies) == report.requests
        assert report.latencies == sorted(report.latencies)
        latency = report.percentiles_ms()
        assert latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_expected_payloads_verify_clean(self, served) -> None:
        service, url = served
        expected = {
            text: json.loads(json.dumps(result_to_dict(service.run(text))))
            for text in QUERIES
        }
        report = run_load(url, QUERIES, concurrency=1, duration=0.3, expected=expected)
        assert report.requests > 0
        assert report.mismatches == 0

    def test_wrong_expectations_are_counted_as_mismatches(self, served) -> None:
        _, url = served
        wrong = {text: {"total_matches": -1} for text in QUERIES}
        report = run_load(url, QUERIES, concurrency=1, duration=0.2, expected=wrong)
        assert report.mismatches == report.requests > 0

    def test_connection_refused_raises_instead_of_empty_report(self) -> None:
        with pytest.raises(OSError):
            run_load("http://127.0.0.1:9", QUERIES, concurrency=1, duration=0.2)

    def test_invalid_arguments_rejected(self, served) -> None:
        _, url = served
        with pytest.raises(ValueError, match="concurrency"):
            run_load(url, QUERIES, concurrency=0, duration=0.2)
        with pytest.raises(ValueError, match="duration"):
            run_load(url, QUERIES, concurrency=1, duration=0.0)
        with pytest.raises(ValueError, match="query mix"):
            run_load(url, [], concurrency=1, duration=0.2)


class TestLoadgenReport:
    def test_empty_report_degrades_gracefully(self) -> None:
        report = LoadgenReport(
            concurrency=1, duration_seconds=0.0, requests=0, errors=0, mismatches=0
        )
        assert report.qps == 0.0
        assert report.percentile(0.5) is None
        assert report.percentiles_ms() == {"p50": None, "p95": None, "p99": None}


@pytest.fixture(scope="module")
def shedding(tmp_path_factory, small_corpus):
    """A server that runs one query at a time, admits no second, and sheds
    the rest: ``max_queue=1``, one worker, a slowed service and no result
    cache, so every request reaches the pool.  Yields the URL and the
    expected answer of every query."""
    path = str(tmp_path_factory.mktemp("shedding") / "corpus.si")
    SubtreeIndex.build(small_corpus, mss=3, coding="root-split", path=path).close()
    with QueryService.open(path, result_cache_size=0) as service:
        expected = {
            text: json.loads(json.dumps(result_to_dict(service.run(text)))) for text in QUERIES
        }
        slow = SlowService(service, delay=0.02)
        with ServerThread(slow, max_queue=1, max_workers=1) as thread:
            yield thread.url, expected


class TestOneClient:
    def test_open_loop_sorts_every_dispatched_arrival(self, shedding) -> None:
        url, expected = shedding
        report = run_open_loop(
            url, QUERIES, rate=200.0, duration=0.3, arrivals="uniform", expected=expected, max_clients=8
        )
        assert report.offered == 60
        assert report.accepted > 0 and report.shed > 0
        assert report.errors == 0 and report.mismatches == 0
        assert report.accepted + report.shed + report.errors == report.offered - report.overflowed
        assert len(report.latencies) == report.accepted
        assert report.latencies == sorted(report.latencies)

    def test_closed_loop_keeps_no_latency_for_a_shed_answer(self, shedding) -> None:
        url, expected = shedding
        report = run_load(url, QUERIES, concurrency=3, duration=0.3, expected=expected)
        assert report.errors > 0, "max_queue=1 under three clients must shed"
        assert len(report.latencies) == report.requests - report.errors > 0
        assert report.mismatches == 0
        # Throughput counts answers: a shed request is no answer.
        assert report.qps == len(report.latencies) / report.duration_seconds
        assert report.qps < report.requests / report.duration_seconds

    def test_wrong_expectations_are_mismatches_on_both_loops(self, shedding) -> None:
        url, _ = shedding
        wrong = {text: {"total_matches": -1} for text in QUERIES}
        closed = run_load(url, QUERIES, concurrency=1, duration=0.2, expected=wrong)
        assert closed.mismatches == len(closed.latencies) > 0
        opened = run_open_loop(url, QUERIES, rate=20.0, duration=0.2, arrivals="uniform", expected=wrong)
        assert opened.mismatches == opened.accepted > 0
