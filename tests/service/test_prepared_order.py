"""A prepared query's join order: chosen once, from stored counts, and kept.

``QueryService.prepare`` orders the cover's relations by the whole index's
stored list counts and keeps that order for as long as the prepared query is
cached.  Writes move the lengths, not the order: any connected order gives
the same matches, so a stale one can cost speed but never an answer.  And a
plan is a cached skeleton plus columns, keyed by the cover and the order, so
a live index's writes compile no new kernel once the queries have run.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import _explain_query
from repro.exec import executor as executor_module
from repro.exec.codegen import compile_kernel
from repro.exec.plan import choose_order, cover_relations
from repro.live import LiveIndex
from repro.query.parser import parse_query
from repro.service import QueryService
from repro.trees.matching import count_matches
from repro.trees.node import ParseTree
from repro.trees.penn import parse_penn
from repro.workloads.wh import generate_wh_queries

WH = [item.text for item in generate_wh_queries()]


def _order_now(service: QueryService, text: str):
    """The order the lists' present lengths would give *text*'s cover;
    ``None`` when a list is empty and nothing would be planned."""
    prepared = service.prepare(text)
    relations = cover_relations(prepared.cover, [service.index.lookup(key) for key in prepared.key_bytes])
    if not all(relation.cardinality for relation in relations):
        return None
    nodes = [relation.nodes for relation in relations]
    return choose_order([relation.cardinality for relation in relations], nodes, prepared.cover.edges)


def _oracle(index: LiveIndex, text: str) -> dict:
    root = parse_query(text).root
    counts = ((tree.tid, count_matches(root, tree)) for tree in index.store)
    return {tid: count for tid, count in counts if count}


def _trees(*penn: str):
    return [ParseTree(parse_penn(text), tid=tid) for tid, text in enumerate(penn)]


@pytest.fixture(params=["root-split", "subtree-interval"])
def live(request, tmp_path, small_corpus):
    index = LiveIndex.create(
        str(tmp_path / "order"), mss=3, coding=request.param, trees=list(small_corpus)[:60]
    )
    yield index
    index.close()


def test_the_order_is_chosen_from_stored_counts(live) -> None:
    service = QueryService(live)
    for text in WH:
        prepared = service.prepare(text)
        if len(prepared.key_bytes) > 1:
            assert _order_now(service, text) in (None, prepared.order), text
        assert sorted(prepared.order) == list(range(len(prepared.key_bytes)))


def test_a_stale_prepared_order_stays_exact(live, small_corpus) -> None:
    service = QueryService(live)
    for text in WH:
        service.prepare(text)
    # Skewed adds move some lists far past others; deletes and a compaction
    # move them again.
    skew = "(S (NP (NP (NN a)) (PP (IN b) (NP (NN c)))) (VP (VBZ d) (NP (NN e)) (NP (NN f))))"
    for tree in list(small_corpus)[60:90]:
        live.add_tree(tree.root)
    for _ in range(40):
        live.add_tree(skew)
    for tid in range(0, 60, 3):
        live.delete_tree(tid)
    live.compact()
    for _ in range(20):
        live.add_tree(skew)
    live.delete_tree(61)
    stale = [text for text in WH if _order_now(service, text) not in (None, service.prepare(text).order)]
    assert stale, "no ranking flipped: the history does not test a stale order"
    for text in WH:
        assert service.run(text).matches_per_tree == _oracle(live, text), text
    assert service.run_many(WH) == [service.run(text) for text in WH]


def test_a_warm_live_schedule_compiles_no_kernel(live, small_corpus) -> None:
    service = QueryService(live)
    for text in WH:
        service.run(text)
    before = compile_kernel.cache_info().misses
    trees = iter(list(small_corpus)[60:])
    for number in range(1, 7):
        added = [live.add_tree(next(trees).root) for _ in range(8)]
        live.delete_tree(added[number % 8])
        live.delete_tree(number * 5)
        if number == 4:
            live.compact()
        for text in WH:
            service.run(text)
    assert compile_kernel.cache_info().misses == before


def test_explain_shows_the_order_the_service_runs(tmp_path, capsys, monkeypatch) -> None:
    # S(NP)(VP) at mss 1: three one-node keys, VP the shortest when prepared.
    base = ["(S (NP x) (VP y))"] * 5 + ["(S (S x) (S y))"] * 3 + ["(NP (NP x) (NP y) (NP z))"] * 3
    index = LiveIndex.create(str(tmp_path / "flip"), mss=1, coding="root-split", trees=_trees(*base))
    service = QueryService(index)
    try:
        text = "S(NP)(VP)"
        prepared = service.prepare(text)
        for _ in range(4):  # VP grows past both: the lists' ranking flips
            index.add_tree("(VP (VP x) (VP y) (VP z) (VP w))")
        assert _order_now(service, text) != prepared.order

        _explain_query(service, text)
        explained = re.findall(r"^ {4}\d+\. (\S+)", capsys.readouterr().out, re.MULTILINE)
        executed = []
        run_plan = executor_module.run_plan

        def recording(plan):
            executed.append([prepared.key_bytes[step.relation].decode() for step in plan.steps])
            return run_plan(plan)

        monkeypatch.setattr(executor_module, "run_plan", recording)
        assert service.run(text).matches_per_tree == _oracle(index, text)
        assert executed == [explained]
        assert explained == [prepared.key_bytes[at].decode() for at in prepared.order]
    finally:
        service.close()
        index.close()
