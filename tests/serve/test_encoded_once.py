"""A resident answer is sent as the bytes it was, and those bytes are never stale.

The server keeps a result's JSON on the result itself (``QueryResult.encoded``)
the first time it sends it, so a cached result is encoded once, and a query
is prepared once a request.  The memo is the result object's: a write that
changes the answer gives a new object -- cut by a delete, or joined again
after an add -- so a memo keyed by the query text would serve stale bytes
where this one cannot.
"""

from __future__ import annotations

import http.client
import json
from urllib.parse import urlsplit

import pytest

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.corpus.store import Corpus
from repro.live import LiveIndex
from repro.query.model import has_duplicate_siblings
from repro.serve import server as server_module
from repro.serve.server import ServerThread, result_to_dict
from repro.service.service import QueryService
from repro.workloads.wh import generate_wh_queries

#: The WH templates without twin sibling subtrees: 42 distinct queries.
WH42 = [query.text for query in generate_wh_queries() if not has_duplicate_siblings(query.query)]

FISH = "(ROOT (S (NP (DT the) (NN fish)) (VP (VBZ swims))))"


@pytest.fixture()
def served():
    """Start a server over a new service of an index; close all at teardown."""
    running = []

    def start(index: SegmentSet):
        service = QueryService(index)
        thread = ServerThread(service).start()
        parts = urlsplit(thread.url)
        connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
        running.append((connection, thread, service, index))
        return service, thread, connection

    yield start
    for connection, thread, service, index in running:
        connection.close()
        thread.stop()
        service.close()
        index.close()


def _post(connection: http.client.HTTPConnection, text: str) -> bytes:
    connection.request("POST", "/query", body=json.dumps({"query": text}).encode())
    response = connection.getresponse()
    body = response.read()
    assert response.status == 200, body
    return body


def _plain(tmp_path, small_corpus) -> SegmentSet:
    trees = list(small_corpus)
    built = SubtreeIndex.build(trees, mss=3, coding="root-split", path=str(tmp_path / "c.si"))
    return SegmentSet.of(built, Corpus(trees))


def test_each_resident_result_is_encoded_once(monkeypatch, served, tmp_path, small_corpus) -> None:
    assert len(set(WH42)) == 42
    calls = []

    def counted(result):
        calls.append(result)
        return result_to_dict(result)

    monkeypatch.setattr(server_module, "result_to_dict", counted)
    _, thread, connection = served(_plain(tmp_path, small_corpus))
    for _ in range(10):
        for text in WH42:
            _post(connection, text)
    assert len(calls) == 42  # one a result, not one a request (420)
    assert thread.server.metrics.query_answers == {"loop": 378, "pool": 42}


def test_a_served_query_is_one_plan_lookup(served, tmp_path, small_corpus) -> None:
    service, _, connection = served(_plain(tmp_path, small_corpus))
    for _ in range(3):
        _post(connection, "NP(DT)(NN)")
    plans = service.stats().plans
    assert (plans.lookups, plans.misses) == (3, 1)


def test_resident_bytes_follow_deletes_and_adds(served, tmp_path, small_corpus) -> None:
    live = LiveIndex.create(str(tmp_path / "l"), mss=3, coding="root-split", trees=list(small_corpus)[:60])
    service, thread, connection = served(live)
    text = "NP(DT)(NN)"

    def served_tids(expect_loop: bool) -> list:
        loop = thread.server.metrics.query_answers["loop"]
        body = _post(connection, text)
        assert body == json.dumps({"query": text, "result": result_to_dict(service.run(text))}).encode()
        assert thread.server.metrics.query_answers["loop"] == loop + expect_loop
        return json.loads(body)["result"]["matched_tids"]

    before = served_tids(expect_loop=False)
    assert served_tids(expect_loop=True) == before  # resident: the bytes it was
    victim = before[len(before) // 2]
    live.delete_tree(victim)
    # A delete moves no tag: the answer is still resident, and cut.
    assert served_tids(expect_loop=True) == [tid for tid in before if tid != victim]
    added = live.add_tree(FISH)
    after_add = served_tids(expect_loop=False)  # an add moves the delta's tag: joined again
    assert added in after_add and victim not in after_add
    assert served_tids(expect_loop=True) == after_add
    live.delete_tree(added)
    assert added not in served_tids(expect_loop=True)
