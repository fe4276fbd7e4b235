"""Satellite: /metrics survives a strict Prometheus parser, twice over.

``chaoskit.parse_prometheus`` enforces the exposition grammar (HELP/TYPE
per family, one declaration each, float-parseable values, samples under
their own family, cumulative buckets with ``+Inf == _count``); this test
drives mixed traffic, parses two scrapes, and checks every counter-like
series moved monotonically and by exactly the traffic issued in between.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from tests.serve.chaos.conftest import QUERIES
from tests.serve.chaoskit import assert_monotonic, parse_prometheus

#: Every family the hardened server promises to export.
EXPECTED_FAMILIES = {
    "repro_http_requests_total": "counter",
    "repro_http_errors_total": "counter",
    "repro_http_request_duration_seconds": "histogram",
    "repro_http_sheds_total": "counter",
    "repro_http_timeouts_total": "counter",
    "repro_http_query_answers_total": "counter",
    "repro_http_protocol_errors_total": "counter",
    "repro_http_idle_closed_total": "counter",
    "repro_http_connections_open": "gauge",
    "repro_http_connections_peak": "gauge",
    "repro_server_draining": "gauge",
    "repro_queries_total": "counter",
    "repro_batches_total": "counter",
    "repro_cache_lookups_total": "counter",
    "repro_cache_hits_total": "counter",
    "repro_cache_hit_rate": "gauge",
    "repro_index_probes_total": "counter",
    "repro_index_tree_descents_total": "counter",
    "repro_index_node_decodes_total": "counter",
}


def _traffic(url: str, queries) -> None:
    """A little of everything: successes, client errors, a batch, a 404."""
    for text in queries:
        _post(url + "/query", {"query": text})
    _post(url + "/query/batch", {"queries": list(queries)})
    _get(url + "/stats")
    _get(url + "/healthz")
    _post(url + "/query", {"wrong": "shape"})  # 400
    _get(url + "/definitely-not-a-route")  # 404

def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _post(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _scrape(url: str):
    with urllib.request.urlopen(url + "/metrics", timeout=10.0) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")
        return parse_prometheus(response.read().decode("utf-8"))


def test_metrics_roundtrip_wellformed_and_monotonic(start_server) -> None:
    thread = start_server()
    url = thread.url
    _traffic(url, QUERIES)
    first = _scrape(url)  # parse_prometheus validates the grammar itself

    for name, kind in EXPECTED_FAMILIES.items():
        assert name in first, f"family {name} missing from /metrics"
        assert first[name].kind == kind, name
        assert first[name].samples, f"family {name} exported no samples"

    # Label spaces are complete from the first scrape: every shed reason,
    # every timeout kind, every endpoint -- scrapers never see series pop
    # into existence later.
    sheds = first["repro_http_sheds_total"]
    assert {labels["reason"] for _, labels, _ in sheds.samples} == {
        "connections", "queue", "draining",
    }
    timeouts = first["repro_http_timeouts_total"]
    assert {labels["kind"] for _, labels, _ in timeouts.samples} == {
        "header", "body", "handler", "write",
    }
    requests_family = first["repro_http_requests_total"]
    endpoints = {labels["endpoint"] for _, labels, _ in requests_family.samples}
    assert {"/query", "/query/batch", "/stats", "/healthz", "/metrics", "other"} <= endpoints

    # This quiet little server shed and timed nothing out, and is not
    # draining -- the hardening counters exist but sit at zero.
    assert all(value == 0 for _, _, value in sheds.samples)
    assert all(value == 0 for _, _, value in timeouts.samples)
    assert first["repro_server_draining"].value() == 0

    # Second scrape after more traffic: strictly accounted, never backwards.
    _traffic(url, QUERIES)
    second = _scrape(url)
    assert_monotonic(first, second)

    def query_requests(families):
        return families["repro_http_requests_total"].value({"endpoint": "/query"})

    # _traffic posts len(QUERIES) + 1 requests to /query (the bad-shape 400
    # included); the counter moved by exactly that.
    assert query_requests(second) - query_requests(first) == len(QUERIES) + 1
    errors = second["repro_http_errors_total"]
    assert errors.value({"endpoint": "/query"}) >= 2  # one 400 per _traffic call
    assert errors.value({"endpoint": "other"}) >= 2  # one 404 per _traffic call

    # Every successful answer of either query endpoint ran somewhere and is
    # counted exactly once -- a request, not its queries: on the loop or on
    # the pool, both series present from the first scrape.
    def answers(families):
        family = families["repro_http_query_answers_total"]
        assert {labels["path"] for _, labels, _ in family.samples} == {"loop", "pool"}
        return family.value({"path": "loop"}) + family.value({"path": "pool"})

    assert answers(second) - answers(first) == len(QUERIES) + 1  # + the batch

    # The histogram count for /query agrees with the request counter --
    # the two families are recorded by the same code path, in lockstep.
    histogram = second["repro_http_request_duration_seconds"]
    assert histogram.value({"endpoint": "/query"}, suffix="_count") == query_requests(second)
