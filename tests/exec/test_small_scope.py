"""Every answer on a small scope, enumerated (ROADMAP item 14).

The generative oracle samples; this test enumerates.  The scope is the
paper's cover definitions over a two-letter alphabet:

* every ordered tree of at most five nodes over ``{A, B}`` (550 trees);
* every query of at most three nodes over ``{A, B}``, each edge ``/`` or
  ``//`` (74 queries), plus sixteen four-node queries with same-label
  siblings that differ only below a ``//`` edge -- under Hypothesis's
  ``deep`` profile (``REPRO_HYPOTHESIS_PROFILE=deep``), every query of at
  most four nodes (714);
* all three codings at mss 1-4, through ``QueryExecutor``, each answer
  checked against :func:`repro.trees.matching.count_matches` tree by tree;
* all three codings at mss 1-4 through ``QueryService`` over three more
  shapes of the same trees: one index file, one to three shards, and a live
  index of two segments (one compaction) and a delta, with tombstones in
  both.

Every answer is exact: a same-label sibling is held with all its twins in
one key or bound by the join (``docs/query-language.md``), and the list of
wrong answers each cell returns must be empty.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import pytest
from hypothesis import settings

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.corpus.store import Corpus, TreeStore, data_file_path
from repro.exec import QueryExecutor
from repro.live import LiveIndex
from repro.query.parser import parse_query
from repro.service import QueryService
from repro.shard import build_sharded
from repro.trees.matching import count_matches
from repro.trees.node import ParseTree, build_tree

LABELS = "AB"
CODINGS = ("filter", "root-split", "subtree-interval")
MSS = (1, 2, 3, 4)
FOUR_NODE = json.loads((Path(__file__).parent / "data" / "small_scope_four_node.json").read_text(encoding="utf-8"))
DEEP = settings.default.max_examples > settings.get_profile("default").max_examples


def _forests(size: int, axes: Tuple[str, ...]) -> Iterator[Tuple[str, ...]]:
    """Every ordered forest of *size* nodes, each tree written as the query
    text of one child, its edge any of *axes*."""
    if not size:
        yield ()
        return
    for first in range(1, size + 1):
        for tree in _trees(first, axes):
            for axis in axes:
                for rest in _forests(size - first, axes):
                    yield (axis + tree,) + rest


def _trees(size: int, axes: Tuple[str, ...]) -> Iterator[str]:
    """Every ordered tree of *size* nodes over :data:`LABELS`, as query text."""
    for label in LABELS:
        for children in _forests(size - 1, axes):
            yield label + "".join(f"({child})" for child in children)


def _spec(text: str) -> tuple:
    """A ``/``-only query text as a :func:`build_tree` spec."""
    node = parse_query(text).root

    def spec(node) -> tuple:
        return (node.label, [spec(child) for child in node.children])

    return spec(node)


TREES = [
    ParseTree(build_tree(_spec(text)), tid=tid)
    for tid, text in enumerate(text for size in range(1, 6) for text in _trees(size, ("",)))
]
QUERIES = [text for size in range(1, 5 if DEEP else 4) for text in _trees(size, ("", "//"))]
if not DEEP:
    QUERIES += FOUR_NODE


def test_the_scope_is_what_the_docstring_says() -> None:
    assert len(TREES) == 550
    assert len(QUERIES) == (714 if DEEP else 74 + 16)
    assert len(set(QUERIES)) == len(QUERIES)
    assert all(parse_query(text).size() == 4 for text in FOUR_NODE)


@pytest.fixture(scope="module")
def oracle() -> Dict[str, Dict[int, int]]:
    """``query text -> {tid: matches}`` by brute force over every tree."""
    answers: Dict[str, Dict[int, int]] = {}
    for text in QUERIES:
        root = parse_query(text).root
        counts = ((tree.tid, count_matches(root, tree)) for tree in TREES)
        answers[text] = {tid: count for tid, count in counts if count}
    return answers


def _wrong(run: Callable[[str], dict], oracle, tree_of: Dict[int, int]) -> List[str]:
    """The queries *run* answers wrongly, its tids mapped to the scope's by
    *tree_of*."""
    wrong = []
    for text in QUERIES:
        if {tree_of[tid]: count for tid, count in run(text).items()} != oracle[text]:
            wrong.append(text)
    return wrong


@pytest.mark.parametrize("coding, mss", list(product(CODINGS, MSS)))
def test_every_answer_is_exact(tmp_path, oracle, coding: str, mss: int) -> None:
    index = SubtreeIndex.build(TREES, mss, coding, str(tmp_path / "scope.si"))
    try:
        executor = QueryExecutor(index, store=Corpus(TREES))
        run = lambda text: executor.execute(parse_query(text)).matches_per_tree  # noqa: E731
        assert _wrong(run, oracle, {tree.tid: tree.tid for tree in TREES}) == []
    finally:
        index.close()


def _live(path: str, mss: int, coding: str) -> Tuple[LiveIndex, Dict[int, int]]:
    """The scope's trees in a live index: a seed segment, a segment written
    by a compaction, then a delta.  Twenty trees are added twice, once into
    each of the last two, and their second copies deleted, so the survivors
    are the scope's trees once each.  Returns the index and live tid ->
    scope tid."""
    live = LiveIndex.create(path, mss, coding, trees=TREES[:200], fsync=False)
    tree_of = {tree.tid: tree.tid for tree in TREES[:200]}

    def add(trees: List[ParseTree], copied: List[ParseTree]) -> List[int]:
        for tree in trees:
            tree_of[live.add_tree(tree.root)] = tree.tid
        return [live.add_tree(tree.root) for tree in copied]

    copies = add(TREES[200:400], TREES[:10])
    live.compact()
    copies += add(TREES[400:], TREES[10:20])
    for tid in copies:
        live.delete_tree(tid)
    assert live.segment_count == 2 and live.delta.tree_count and live.tombstones
    return live, tree_of


@pytest.mark.parametrize("shape", ["plain", "sharded", "live"])
@pytest.mark.parametrize("coding, mss", list(product(CODINGS, MSS)))
def test_a_served_shape_is_exact(tmp_path, oracle, coding: str, mss: int, shape: str) -> None:
    """``QueryService`` over one index file and its data file, over one to
    three shards (the count turns with ``mss``), or over a live index."""
    path = str(tmp_path / "scope.si")
    tree_of = {tree.tid: tree.tid for tree in TREES}
    if shape == "plain":
        SubtreeIndex.build(TREES, mss, coding, path).close()
        TreeStore.build(data_file_path(path), TREES).close()
        index = SegmentSet.open(path)
    elif shape == "sharded":
        index = SegmentSet.open(build_sharded(TREES, mss, coding, path, shards=1 + mss % 3, workers=1))
    else:
        index, tree_of = _live(path, mss, coding)
    service = QueryService(index)
    try:
        run = lambda text: service.run(text).matches_per_tree  # noqa: E731
        assert _wrong(run, oracle, tree_of) == []
    finally:
        service.close()
        index.close()
