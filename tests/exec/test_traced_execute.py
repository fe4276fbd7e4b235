"""A traced execute answers like an untraced one.

``QueryExecutor.execute`` asks once whether a tracer listens: untraced it
calls the compiler, the index and the join directly, traced it runs the
spanned stage functions (``decompose_query``, ``fetch_postings``,
``join_postings``).  Every WH and FB query, under all three codings, must
give the same matches and the same counters either way, and the traced run
must still record its stages.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.core.index import SubtreeIndex
from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus
from repro.exec import QueryExecutor
from repro.obs.tracer import Tracer
from repro.query.parser import parse_query
from repro.workloads.fb import generate_fb_queries
from repro.workloads.wh import generate_wh_queries

CODINGS = ("filter", "root-split", "subtree-interval")
MSS = 3

_TREES = CorpusGenerator(seed=2012).generate_list(150)
_WH = [item.text for item in generate_wh_queries()]
_FB = [
    item.text
    for item in generate_fb_queries(_TREES, CorpusGenerator(seed=2013).generate_list(60), seed=13).queries
]


def _span_names(span: dict) -> set:
    names = {span["name"]}
    for child in span["children"]:
        names |= _span_names(child)
    return names


def _counters(stats) -> dict:
    fields = dataclasses.asdict(stats)
    del fields["elapsed_seconds"]
    return fields


@pytest.fixture(autouse=True)
def tracing_off():
    obs.disable()
    yield
    obs.disable()


def test_the_query_sets_are_whole() -> None:
    assert len(_WH) == 48 and len(_FB) == 70


@pytest.mark.parametrize("coding", CODINGS)
def test_a_traced_execute_answers_like_an_untraced_one(coding: str, tmp_path) -> None:
    index = SubtreeIndex.build(_TREES, MSS, coding, str(tmp_path / f"{coding}.si"))
    executor = QueryExecutor(index, store=Corpus(_TREES))
    try:
        for text in _WH + _FB:
            query = parse_query(text)
            plain = executor.execute(query)
            assert plain.stats.elapsed_seconds > 0, text
            tracer = obs.enable(Tracer())
            try:
                traced = executor.execute(query)
            finally:
                obs.disable()
            assert traced.matches_per_tree == plain.matches_per_tree, text
            assert _counters(traced.stats) == _counters(plain.stats), text
            assert traced.stats.elapsed_seconds > 0, text
            record = tracer.last(1)[0]
            assert record["name"] == "query" and record["attrs"]["engine"] == "executor", text
            assert {"decompose", "fetch_postings", "join"} <= _span_names(record["spans"]), text
    finally:
        index.close()
