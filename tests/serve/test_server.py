"""End-to-end tests of the HTTP server over all three service flavors.

One server is started per flavor (plain / sharded / live) over the same
corpus; every test runs against each, so the equivalence guarantee --
served responses identical to in-process ``QueryService.run`` -- is checked
across the whole dispatch surface of ``QueryService.open``.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.corpus.store import TreeStore, data_file_path
from repro.live import LiveIndex
from repro.serve.server import ENDPOINTS, ServerThread, open_server, result_to_dict
from repro.shard import build_sharded

QUERIES = ["NP(DT)(NN)", "VP(VBZ)", "S(NP)(VP)", "NP(DT)(JJ)(NN)"]

FLAVORS = ("plain", "sharded", "live")


def _get(url: str) -> tuple:
    with urllib.request.urlopen(url) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


def _post(url: str, payload: bytes) -> tuple:
    request = urllib.request.Request(
        url, data=payload, headers={"Content-Type": "application/json"}, method="POST"
    )
    with urllib.request.urlopen(request) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


def _post_error(url: str, payload: bytes) -> tuple:
    request = urllib.request.Request(
        url, data=payload, headers={"Content-Type": "application/json"}, method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    return excinfo.value.code, json.load(excinfo.value)


@pytest.fixture(scope="module")
def index_paths(tmp_path_factory, small_corpus) -> dict:
    """One index per flavor, all over the same corpus."""
    root = tmp_path_factory.mktemp("serve")
    plain = str(root / "plain.si")
    SubtreeIndex.build(small_corpus, mss=3, coding="root-split", path=plain).close()
    TreeStore.build(data_file_path(plain), small_corpus).close()
    sharded = str(root / "sharded.si")
    SegmentSet.open(build_sharded(
        small_corpus, mss=3, coding="root-split", path=sharded, shards=2, workers=1
    )).close()
    live = str(root / "live.si")
    LiveIndex.create(live, mss=3, coding="root-split", trees=list(small_corpus)).close()
    return {
        "plain": plain,
        "sharded": sharded + ".manifest.json",
        "live": live + ".live.json",
    }


@pytest.fixture(scope="module", params=FLAVORS)
def served(request, index_paths):
    """(flavor, service, base URL) for each flavor, server running."""
    flavor = request.param
    service, thread = open_server(index_paths[flavor])
    try:
        yield flavor, service, thread.url
    finally:
        thread.stop()
        service.close()


class TestEndpoints:
    def test_healthz_reports_flavor_and_index(self, served, index_paths) -> None:
        flavor, _, url = served
        status, content_type, body = _get(url + "/healthz")
        assert status == 200
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["flavor"] == flavor
        assert payload["index"] == index_paths[flavor]
        assert payload["uptime_seconds"] >= 0

    def test_query_payload_shape(self, served) -> None:
        _, _, url = served
        status, _, body = _post(url + "/query", json.dumps({"query": QUERIES[0]}).encode())
        assert status == 200
        payload = json.loads(body)
        assert payload["query"] == QUERIES[0]
        result = payload["result"]
        assert set(result) == {"total_matches", "matched_tids", "matches_per_tree", "stats"}
        assert result["total_matches"] == sum(result["matches_per_tree"].values())
        assert sorted(int(tid) for tid in result["matches_per_tree"]) == result["matched_tids"]
        assert set(result["stats"]) == {
            "coding", "strategy", "cover_size", "join_count",
            "postings_fetched", "candidates_filtered", "elapsed_seconds",
        }

    def test_served_results_identical_to_direct_run(self, served) -> None:
        # The acceptance bar of the serving layer: the HTTP hop returns byte
        # for byte what QueryService.run computes in-process.
        _, service, url = served
        for text in QUERIES:
            direct = json.loads(json.dumps(result_to_dict(service.run(text))))
            _, _, body = _post(url + "/query", json.dumps({"query": text}).encode())
            assert json.loads(body)["result"] == direct, text

    def test_batch_results_identical_to_run_and_ordered(self, served) -> None:
        _, service, url = served
        queries = QUERIES + [QUERIES[0]]  # a duplicate shares one evaluation
        status, _, body = _post(
            url + "/query/batch", json.dumps({"queries": queries}).encode()
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == len(queries)
        assert [item["query"] for item in payload["results"]] == queries
        for item in payload["results"]:
            direct = json.loads(json.dumps(result_to_dict(service.run(item["query"]))))
            assert item["result"] == direct

    def test_a_batch_is_one_run_many(self, served) -> None:
        # Each distinct cover key fetched once, each distinct query joined
        # once: duplicates of a query not yet run come back as one result
        # (the same execution, to the last digit of its elapsed time), in
        # request order, and the service's batch counters move.
        _, service, url = served
        before = service.stats()
        queries = ["VP(VBD)(NP)", "S(NP)(VP(VBD))", "VP(VBD)(NP)", "VP(VBD)"]
        _, _, body = _post(url + "/query/batch", json.dumps({"queries": queries}).encode())
        payload = json.loads(body)
        assert [item["query"] for item in payload["results"]] == queries
        assert payload["results"][0]["result"] == payload["results"][2]["result"]
        after = service.stats()
        assert after.batches == before.batches + 1
        assert after.queries == before.queries + len(queries)
        assert after.batch_keys_deduped > before.batch_keys_deduped
        for item in payload["results"]:  # and each equals /query's answer
            _, _, single = _post(url + "/query", json.dumps({"query": item["query"]}).encode())
            assert json.loads(single)["result"] == item["result"]
        _, _, body = _get(url + "/metrics")
        assert f"repro_batches_total {after.batches}\n" in body.decode("utf-8")
        status, _, body = _post(url + "/query/batch", json.dumps({"queries": []}).encode())
        assert status == 200 and json.loads(body) == {"count": 0, "results": []}

    def test_stats_shape_is_flavor_independent(self, served) -> None:
        flavor, service, url = served
        _post(url + "/query", json.dumps({"query": QUERIES[0]}).encode())
        _, _, body = _get(url + "/stats")
        payload = json.loads(body)
        assert payload["flavor"] == flavor
        service_stats = payload["service"]
        # The merged shape: identical core keys for every flavor, so the
        # metrics exporter needs no per-flavor branches.
        assert {"queries", "batches", "batch_keys_deduped", "caches", "probes"} <= set(
            service_stats
        )
        assert set(service_stats["caches"]) == {"plans", "postings", "results"}
        for counters in service_stats["caches"].values():
            assert set(counters) == {
                "hits", "misses", "lookups", "evictions", "size", "capacity", "hit_rate",
            }
        assert set(service_stats["probes"]) == {
            "gets", "cache_hits", "tree_descents", "node_decodes", "hit_rate",
        }
        assert service_stats["queries"] >= 1
        # Flavor extras ride under their own keys, never in the core shape:
        # one row per file of a segmented index, the mutation side of a live one.
        assert ("sources" in service_stats) == (flavor != "plain")
        assert ("live" in service_stats) == (flavor == "live")
        if flavor != "plain":
            sources = service_stats["sources"]
            assert len(sources) == {"sharded": 2, "live": 1}[flavor]
            assert sum(row["tree_count"] for row in sources) == len(service.index.store)
            assert sum(row["size_bytes"] for row in sources) == service.index.size_bytes()
            assert all(row["tree_descents"] >= 1 for row in sources)  # the probe split
        if flavor == "live":
            assert service_stats["live"]["epoch"] >= 0
        server_stats = payload["server"]
        assert set(server_stats["endpoints"]) == set(ENDPOINTS)
        assert server_stats["endpoints"]["/query"]["requests"] >= 1
        # Where the index files' bytes are, every flavor's sources added up.
        storage = payload["storage"]
        assert storage == service.index.page_census()
        assert 4096 * sum(row["pages"] for row in storage.values()) == service.index.size_bytes()

    def test_metrics_exposition(self, served) -> None:
        _, _, url = served
        _post(url + "/query", json.dumps({"query": QUERIES[0]}).encode())
        status, content_type, body = _get(url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        text = body.decode("utf-8")
        for family in (
            "repro_http_requests_total",
            "repro_http_errors_total",
            "repro_http_request_duration_seconds",
            "repro_queries_total",
            "repro_cache_hit_rate",
            "repro_index_probes_total",
            "repro_batches_total",
        ):
            assert f"# TYPE {family}" in text, family
        assert 'repro_http_requests_total{endpoint="/query"}' in text
        assert 'le="+Inf"' in text
        assert 'quantile="0.99"' in text


class TestErrorHandling:
    def test_unparseable_query_is_a_400(self, served) -> None:
        _, _, url = served
        code, payload = _post_error(url + "/query", json.dumps({"query": "((bad"}).encode())
        assert code == 400
        assert "cannot parse query" in payload["error"]

    def test_missing_and_empty_query_fields_are_400s(self, served) -> None:
        _, _, url = served
        code, payload = _post_error(url + "/query", b"{}")
        assert (code, payload["error"]) == (400, "missing 'query' field")
        code, payload = _post_error(url + "/query", json.dumps({"query": "  "}).encode())
        assert code == 400 and "non-empty" in payload["error"]
        code, payload = _post_error(url + "/query/batch", b"{}")
        assert code == 400 and "queries" in payload["error"]
        code, _ = _post_error(url + "/query/batch", json.dumps({"queries": "NP"}).encode())
        assert code == 400

    def test_invalid_json_bodies_are_400s(self, served) -> None:
        _, _, url = served
        code, payload = _post_error(url + "/query", b"not json at all")
        assert code == 400 and "not valid JSON" in payload["error"]
        code, payload = _post_error(url + "/query", b'["a", "list"]')
        assert code == 400 and "JSON object" in payload["error"]

    def test_bad_batch_query_fails_before_batching(self, served) -> None:
        # One bad query must 400 the whole request, before anything runs.
        _, _, url = served
        code, payload = _post_error(
            url + "/query/batch", json.dumps({"queries": [QUERIES[0], "((bad"]}).encode()
        )
        assert code == 400 and "((bad" in payload["error"]
        status, _, body = _post(
            url + "/query/batch", json.dumps({"queries": [QUERIES[0]]}).encode()
        )
        assert status == 200 and json.loads(body)["count"] == 1

    def test_unknown_path_is_a_404_listing_endpoints(self, served) -> None:
        _, _, url = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url + "/nope")
        assert excinfo.value.code == 404
        assert "/query/batch" in json.load(excinfo.value)["error"]

    def test_wrong_methods_are_405s(self, served) -> None:
        _, _, url = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url + "/query")  # GET on a POST endpoint
        assert excinfo.value.code == 405
        code, _ = _post_error(url + "/stats", b"{}")
        assert code == 405


class TestServerThread:
    def test_ephemeral_ports_and_stop_are_clean(self, index_paths) -> None:
        service, thread = open_server(index_paths["plain"])
        port = thread.port
        assert port > 0
        thread.stop()
        service.close()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=0.5)

    def test_bind_conflict_surfaces_in_caller(self, index_paths) -> None:
        service, thread = open_server(index_paths["plain"])
        try:
            from repro.service.service import QueryService

            other = QueryService.open(index_paths["plain"])
            with pytest.raises(OSError):
                ServerThread(other, port=thread.port).start()
            other.close()
        finally:
            thread.stop()
            service.close()
