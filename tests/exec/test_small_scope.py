"""Every answer on a small scope, enumerated (ROADMAP item 14).

The generative oracle samples; this test enumerates.  The scope is the
paper's cover definitions over a two-letter alphabet:

* every ordered tree of at most five nodes over ``{A, B}`` (550 trees);
* every query of at most three nodes over ``{A, B}``, each edge ``/`` or
  ``//`` (74 queries), plus the sixteen four-node queries subtree-interval
  undercounts (item 4(b)) -- under Hypothesis's ``deep`` profile
  (``REPRO_HYPOTHESIS_PROFILE=deep``), every query of at most four nodes
  (714);
* all three codings at mss 1-4, through ``QueryExecutor``, each answer
  checked against :func:`repro.trees.matching.count_matches` tree by tree;
* root-split at mss 1-4 through ``QueryService`` over two more shapes of
  the same trees: three shards, and a live index of two segments (one
  compaction) and a delta, with tombstones in both.

The wrong ``(coding, mss, query)`` triples of the full scope are committed
in ``data/small_scope_wrong.json``, and the wrong set of the slice run must
be *exactly* the committed triples of that slice.  That is a pin, not a
tolerance: a fix to item 4 shrinks the list in its own change, and any new
wrong answer fails here.  Root-split's wrong answers are supersets, tree by
tree, and subtree-interval's subsets.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Set, Tuple

import pytest
from hypothesis import settings

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.corpus.store import Corpus
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
PINNED = json.loads((Path(__file__).parent / "data" / "small_scope_wrong.json").read_text(encoding="utf-8"))
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
    QUERIES += PINNED["four_node_queries"]


def test_the_scope_is_what_the_docstring_says() -> None:
    assert len(TREES) == 550
    assert len(QUERIES) == (714 if DEEP else 74 + 16)
    assert len(set(QUERIES)) == len(QUERIES)
    assert all(parse_query(text).size() == 4 for text in PINNED["four_node_queries"])


@pytest.fixture(scope="module")
def oracle() -> Dict[str, Dict[int, int]]:
    """``query text -> {tid: matches}`` by brute force over every tree."""
    answers: Dict[str, Dict[int, int]] = {}
    for text in QUERIES:
        root = parse_query(text).root
        counts = ((tree.tid, count_matches(root, tree)) for tree in TREES)
        answers[text] = {tid: count for tid, count in counts if count}
    return answers


def _wrong(run: Callable[[str], dict], oracle, coding: str, tree_of: Dict[int, int]) -> Set[str]:
    """The queries *run* answers wrongly, its tids mapped to the scope's by
    *tree_of*; root-split's wrong answers are supersets tree by tree and
    the others' subsets."""
    wrong: Set[str] = set()
    for text in QUERIES:
        found = {tree_of[tid]: count for tid, count in run(text).items()}
        expected = oracle[text]
        if found == expected:
            continue
        wrong.add(text)
        tids = set(found) | set(expected)
        if coding == "root-split":
            assert all(found.get(tid, 0) >= expected.get(tid, 0) for tid in tids), text
        else:
            assert all(found.get(tid, 0) <= expected.get(tid, 0) for tid in tids), text
    return wrong


def _pinned(coding: str, mss: int) -> Set[str]:
    """The committed wrong queries of one cell, within the scope run."""
    cell = {text for at_coding, at_mss, text in PINNED["wrong"] if (at_coding, at_mss) == (coding, mss)}
    return cell & set(QUERIES)


@pytest.mark.parametrize("coding, mss", list(product(CODINGS, MSS)))
def test_every_wrong_answer_is_pinned(tmp_path, oracle, coding: str, mss: int) -> None:
    """One (coding, mss) cell: its wrong queries are exactly the pinned ones."""
    index = SubtreeIndex.build(TREES, mss, coding, str(tmp_path / "scope.si"))
    try:
        executor = QueryExecutor(index, store=Corpus(TREES))
        run = lambda text: executor.execute(parse_query(text)).matches_per_tree  # noqa: E731
        assert _wrong(run, oracle, coding, {tree.tid: tree.tid for tree in TREES}) == _pinned(coding, mss)
    finally:
        index.close()


def _live(path: str, mss: int) -> Tuple[LiveIndex, Dict[int, int]]:
    """The scope's trees in a live index: a seed segment, a segment written
    by a compaction, then a delta.  Twenty trees are added twice, once into
    each of the last two, and their second copies deleted, so the survivors
    are the scope's trees once each.  Returns the index and live tid ->
    scope tid."""
    live = LiveIndex.create(path, mss, "root-split", trees=TREES[:200], fsync=False)
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


@pytest.mark.parametrize("shape", ["sharded", "live"])
@pytest.mark.parametrize("mss", MSS)
def test_a_served_shape_answers_as_the_executor(tmp_path, oracle, shape: str, mss: int) -> None:
    """Root-split through ``QueryService`` over three shards or a live
    index: the same wrong queries as the executor's pinned cell."""
    if shape == "sharded":
        manifest = build_sharded(TREES, mss, "root-split", str(tmp_path / "s.si"), shards=3, workers=1)
        index = SegmentSet.open(manifest)
        tree_of = {tree.tid: tree.tid for tree in TREES}
    else:
        index, tree_of = _live(str(tmp_path / "live"), mss)
    service = QueryService(index)
    try:
        run = lambda text: service.run(text).matches_per_tree  # noqa: E731
        assert _wrong(run, oracle, "root-split", tree_of) == _pinned("root-split", mss)
    finally:
        service.close()
        index.close()
