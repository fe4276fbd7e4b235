"""A prepared query's join order: chosen by its first join, and kept.

``QueryService.prepare`` parses and decomposes and reads nothing from the
index.  The first join of a prepared query orders the cover's relations by
the executor's rule -- :func:`~repro.exec.plan.choose_order` over the lengths
of the lists it just fetched -- and keeps that order for as long as the
prepared query is cached.  Writes move the lengths, not the order: any
connected order gives the same matches, so a stale one can cost speed but
never an answer.  And a plan is a cached skeleton plus columns, keyed by the
cover and the order, so a live index's writes compile no new kernel once the
queries have run.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import _explain_query
from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.exec import executor as executor_module
from repro.exec.codegen import compile_kernel
from repro.exec.plan import choose_order
from repro.live import LiveIndex
from repro.query.parser import parse_query
from repro.service import QueryService
from repro.shard import build_sharded
from repro.trees.matching import count_matches
from repro.trees.node import ParseTree
from repro.trees.penn import parse_penn
from repro.workloads.wh import generate_wh_queries

WH = [item.text for item in generate_wh_queries()]


def _order_now(service: QueryService, text: str) -> tuple:
    """The order the lists' present lengths give *text*'s cover: the rule,
    each relation binding what the coding stores of its key."""
    prepared = service.prepare(text)
    index = service.index
    roots_only = index.coding.roots_only
    nodes = [subtree.binding(1 if roots_only else subtree.size) for subtree in prepared.cover.subtrees]
    return choose_order([len(index.lookup(key)) for key in prepared.key_bytes], nodes, prepared.cover.edges)


def _oracle(index: LiveIndex, text: str) -> dict:
    root = parse_query(text).root
    counts = ((tree.tid, count_matches(root, tree)) for tree in index.store)
    return {tid: count for tid, count in counts if count}


def _trees(*penn: str):
    return [ParseTree(parse_penn(text), tid=tid) for tid, text in enumerate(penn)]


def _skew(live: LiveIndex, small_corpus) -> None:
    """Skewed adds move some lists far past others; deletes and a compaction
    move them again."""
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


@pytest.fixture(params=["root-split", "subtree-interval"])
def live(request, tmp_path, small_corpus):
    index = LiveIndex.create(
        str(tmp_path / "order"), mss=3, coding=request.param, trees=list(small_corpus)[:60]
    )
    yield index
    index.close()


def _cold(tmp_path, small_corpus, flavor: str, coding: str) -> SegmentSet:
    """An index of *flavor* over the corpus, its files opened afresh; a live
    one holds its last 20 trees in the delta."""
    trees = list(small_corpus)
    path = str(tmp_path / f"{flavor}.si")
    if flavor == "plain":
        SubtreeIndex.build(trees, mss=3, coding=coding, path=path).close()
        return SegmentSet.open(path)
    if flavor == "3-shard":
        return SegmentSet.open(build_sharded(trees, mss=3, coding=coding, path=path, shards=3, workers=1))
    live = LiveIndex.create(path, mss=3, coding=coding, trees=trees[:100], fsync=False)
    for tree in trees[100:]:
        live.add_tree(tree.root)
    return live


def _index_reads(index: SegmentSet) -> list:
    """Every read counter of *index* and of its sources' B+Trees."""
    trees = [source.index._tree for source in index.snapshot.sources if hasattr(source.index, "_tree")]
    assert trees
    return [index.probe_snapshot(), *((tree.probe_stats.snapshot(), tree.pager.read_count) for tree in trees)]


@pytest.mark.parametrize("flavor", ["plain", "3-shard", "live"])
def test_prepare_reads_nothing_from_a_cold_index(tmp_path, small_corpus, flavor) -> None:
    index = _cold(tmp_path, small_corpus, flavor, "root-split")
    service = QueryService(index)
    try:
        before = _index_reads(index)
        prepared = [service.prepare(text) for text in WH]
        assert _index_reads(index) == before
        assert all(item.order is None for item in prepared)
    finally:
        service.close()
        index.close()


@pytest.mark.parametrize("coding", ["root-split", "subtree-interval"])
@pytest.mark.parametrize("flavor", ["plain", "3-shard", "live"])
def test_the_first_join_keeps_the_order_of_the_lists_it_read(tmp_path, small_corpus, flavor, coding) -> None:
    index = _cold(tmp_path, small_corpus, flavor, coding)
    service = QueryService(index)
    try:
        for text in WH:
            prepared = service.prepare(text)
            assert prepared.order is None, text
            service.run(text)
            assert prepared.order == _order_now(service, text), text
            assert service.prepare(text) is prepared
    finally:
        service.close()
        index.close()


def test_the_order_comes_from_the_lists_the_first_join_reads(live, small_corpus) -> None:
    service = QueryService(live)
    at_prepare = {text: _order_now(service, text) for text in WH}
    _skew(live, small_corpus)
    for text in WH:
        service.run(text)
        assert service.prepare(text).order == _order_now(service, text), text
    assert any(service.prepare(text).order != at_prepare[text] for text in WH)


def test_a_stale_kept_order_stays_exact(live, small_corpus) -> None:
    service = QueryService(live)
    for text in WH:
        service.run(text)
    kept = {text: service.prepare(text).order for text in WH}
    _skew(live, small_corpus)
    stale = [text for text in WH if _order_now(service, text) != kept[text]]
    assert stale, "no ranking flipped: the history does not test a stale order"
    for text in WH:
        assert service.run(text).matches_per_tree == _oracle(live, text), text
        assert service.prepare(text).order == kept[text], text
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
    # S(NP)(VP) at mss 1: three one-node keys, VP the shortest at first.
    base = ["(S (NP x) (VP y))"] * 5 + ["(S (S x) (S y))"] * 3 + ["(NP (NP x) (NP y) (NP z))"] * 3
    index = LiveIndex.create(str(tmp_path / "flip"), mss=1, coding="root-split", trees=_trees(*base))
    service = QueryService(index)
    text = "S(NP)(VP)"
    prepared = service.prepare(text)
    executed = []
    run_plan = executor_module.run_plan

    def recording(plan):
        executed.append([prepared.key_bytes[step.relation].decode() for step in plan.steps])
        return run_plan(plan)

    def explained() -> list:
        _explain_query(service, text)
        return re.findall(r"^ {4}\d+\. (\S+)", capsys.readouterr().out, re.MULTILINE)

    monkeypatch.setattr(executor_module, "run_plan", recording)
    try:
        # No order kept yet: explain plans the rule's order over the lists
        # it fetched, which the first join then chooses and keeps.
        first = explained()
        assert service.run(text).matches_per_tree == _oracle(index, text)
        assert executed == [first] == [[prepared.key_bytes[at].decode() for at in prepared.order]]
        for _ in range(4):  # VP grows past both: the lists' ranking flips
            index.add_tree("(S (NP x) (VP (VP x) (VP y) (VP z) (VP w)))")
        assert _order_now(service, text) != prepared.order
        # The kept order: explain shows it, and the next join runs it.
        assert explained() == first
        assert service.run(text).matches_per_tree == _oracle(index, text)
        assert executed == [first, first]
    finally:
        service.close()
        index.close()
