"""The wire format does not move: a served body is ``json.dumps`` of the result.

The server encodes each result's JSON once and splices it into the body
(``serve/server.py::_encoded``).  Over a plain index, a two-shard index and a
live index with a delta and tombstones, each under all three codings, every
WH and FB query's ``/query`` body must equal, byte for byte, what
``json.dumps`` writes of the in-process answer: the first request (a miss,
answered on the pool) and the second (a hit, answered on the loop).  A
``/query/batch`` of the whole mix is held to the same bar.
"""

from __future__ import annotations

import http.client
import json
from urllib.parse import urlsplit

import pytest

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.corpus.store import TreeStore, data_file_path
from repro.live import LiveIndex
from repro.query.parser import parse_query
from repro.serve.server import ServerThread, result_to_dict
from repro.service.service import QueryService
from repro.shard import build_sharded
from repro.workloads.fb import generate_fb_queries
from repro.workloads.wh import generate_wh_queries

CODINGS = ("filter", "root-split", "subtree-interval")
SHAPES = ("plain", "sharded", "live")


def _open(shape: str, coding: str, root, trees) -> SegmentSet:
    """*shape* over the first 100 trees; the live index has a delta and tombstones."""
    indexed = trees[:100]
    path = str(root / f"{shape}-{coding}.si")
    if shape == "plain":
        SubtreeIndex.build(indexed, mss=3, coding=coding, path=path).close()
        TreeStore.build(data_file_path(path), indexed).close()
        return SegmentSet.open(path)
    if shape == "sharded":
        return SegmentSet.open(build_sharded(indexed, mss=3, coding=coding, path=path, shards=2, workers=1))
    live = LiveIndex.create(path, mss=3, coding=coding, trees=indexed[:80], fsync=False)
    for tree in indexed[80:]:
        live.add_tree(tree.root)
    for tid in (2, 41, 85):  # two in the segment, one in the delta
        live.delete_tree(tid)
    return live


class Client:
    """One keep-alive connection to a running server."""

    def __init__(self, url: str):
        parts = urlsplit(url)
        self.connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)

    def post(self, path: str, payload: dict) -> bytes:
        self.connection.request(
            "POST", path, body=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        body = response.read()
        assert response.status == 200, body
        return body

    def close(self) -> None:
        self.connection.close()


@pytest.fixture(scope="module")
def texts(small_corpus) -> list:
    trees = list(small_corpus)
    wh = [query.text for query in generate_wh_queries()]
    fb = [query.text for query in generate_fb_queries(trees[:100], trees[100:], per_class=5, seed=3)]
    assert fb
    # One text a normalized query, so that each first request is a miss.
    unique = {}
    for text in wh + fb:
        unique.setdefault(parse_query(text).root.to_string(), text)
    return list(unique.values())


@pytest.mark.parametrize("coding", CODINGS)
@pytest.mark.parametrize("shape", SHAPES)
def test_bodies_are_json_dumps_of_the_answer(tmp_path, small_corpus, texts, shape, coding) -> None:
    index = _open(shape, coding, tmp_path, list(small_corpus))
    service = QueryService(index)
    thread = ServerThread(service).start()
    client = Client(thread.url)
    answers = thread.server.metrics.query_answers
    try:
        for text in texts:
            pool = answers["pool"]
            first = client.post("/query", {"query": text})
            assert answers["pool"] == pool + 1, text  # a miss, answered on the pool
            expected = json.dumps({"query": text, "result": result_to_dict(service.run(text))}).encode()
            assert first == expected, text
            loop = answers["loop"]
            assert client.post("/query", {"query": text}) == expected, text
            assert answers["loop"] == loop + 1, text  # a hit, answered on the loop

        for where in ("pool", "loop"):
            if where == "pool":
                service.clear_caches()
            before = answers[where]
            body = client.post("/query/batch", {"queries": texts})
            assert answers[where] == before + 1
            results = service.run_many(texts)
            expected = json.dumps({
                "count": len(texts),
                "results": [{"query": text, "result": result_to_dict(result)} for text, result in zip(texts, results)],
            }).encode()
            assert body == expected, where
    finally:
        client.close()
        thread.stop()
        service.close()
        index.close()


def test_an_empty_batch_is_json_dumps_too(tmp_path, small_corpus) -> None:
    index = _open("plain", "root-split", tmp_path, list(small_corpus))
    service = QueryService(index)
    thread = ServerThread(service).start()
    client = Client(thread.url)
    try:
        assert client.post("/query/batch", {"queries": []}) == json.dumps({"count": 0, "results": []}).encode()
        text = " NP(DT) (NN)"  # echoed as sent, not as normalized
        body = client.post("/query", {"query": text})
        assert body == json.dumps({"query": text, "result": result_to_dict(service.run(text))}).encode()
    finally:
        client.close()
        thread.stop()
        service.close()
        index.close()
