"""The structural executors against the brute-force matcher, generatively.

Hypothesis draws a small corpus over a four-label grammar and a query of at
most ``mss + 2`` nodes with both axes, labels the corpus lacks and *twin
siblings whose group fits one cover subtree*; root-split and
subtree-interval indexes at the drawn ``mss`` must return exactly what
:func:`repro.trees.matching.count_matches` finds tree by tree.  The corpus
always holds the query planted as a tree -- once as it is and once with one
twin of every group left out, which matches only if the twins are allowed to
bind the same data node -- so a cover that lets twins share a node fails
here, and the failure shrinks to a minimal tree and query.

The second property draws siblings with one label freely, twins or not, on
either axis, over a two-label corpus: every such sibling is held with all
its twins in one key or bound by the join (``docs/query-language.md``), so
both codings and the node approach -- root-split at mss 1, built on every
example -- are exact.  Below it, one shape it used to draw once in ~1 000
runs is written down for every coding and mss.

The third property takes the first one's queries to every *shape* an index
has: one index file and its data file opened as the set of one, the corpus
split over one to three shards -- read routed by the hash deal, or with the
manifest relabelled to name another partitioner, by asking every shard -- or laid out as a live
index -- base segments, a delta, tombstones, compacted or not -- under all
three codings, through ``QueryService``.  The fourth
keeps one warm ``QueryService`` per coding over a live index and queries it
after every write -- adds, deletes of delta trees and of segment trees,
compactions -- where a cached list that outlived what it was read from
would show.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.corpus.store import Corpus, TreeStore, data_file_path
from repro.exec import QueryExecutor
from repro.live import LiveIndex
from repro.query.model import QueryNode, QueryTree
from repro.query.parser import parse_query
from repro.service import QueryService
from repro.shard import build_sharded
from repro.trees.matching import count_matches
from repro.trees.node import ParseTree, build_tree

LABELS = ["A", "B", "C", "D"]
ABSENT = "Z"
CODINGS = ("root-split", "subtree-interval")


def _examples(count: int) -> int:
    """*count* examples under Hypothesis's default profile, scaled with the
    loaded one (``deep``: ten times; see ``tests/conftest.py``)."""
    return count * settings.default.max_examples // settings.get_profile("default").max_examples


_specs = st.recursive(
    st.sampled_from(LABELS).map(lambda label: (label, [])),
    lambda children: st.tuples(st.sampled_from(LABELS), st.lists(children, max_size=3)),
    max_leaves=8,
)


def _is_rigid(node: QueryNode) -> bool:
    return all(axis == "/" for item in node.preorder() for axis in item.child_axes)


@st.composite
def _queries(draw, mss: int) -> QueryTree:
    """A query of at most ``mss + 2`` nodes.  The children of a node have
    distinct labels, except for rigid twins on ``/`` edges that fit one bin."""

    def build(label: str, budget: int) -> QueryNode:
        node = QueryNode(label)
        budget -= 1
        for child_label in draw(st.lists(st.sampled_from(LABELS + [ABSENT]), unique=True, max_size=3)):
            if budget < 1:
                break
            child = build(child_label, draw(st.integers(min_value=1, max_value=budget)))
            axis = draw(st.sampled_from(["/", "/", "//"]))
            node.add_child(child, axis)
            budget -= child.size()
            copies = draw(st.integers(min_value=1, max_value=3))
            while (
                copies > 1
                and axis == "/"
                and _is_rigid(child)
                and copies * child.size() <= mss - 1
                and budget >= child.size()
            ):
                node.add_child(child.copy(), "/")
                budget -= child.size()
                copies -= 1
        return node

    return QueryTree(build(draw(st.sampled_from(LABELS)), mss + 2))


def _planted(node: QueryNode, drop_twins: bool) -> tuple:
    """*node* as a data tree: ``//`` edges pass through one more node, and
    with *drop_twins* only the first of every group of equal siblings stays."""
    children, seen = [], set()
    for child, axis in zip(node.children, node.child_axes):
        text = child.to_string()
        if drop_twins and text in seen:
            continue
        seen.add(text)
        below = _planted(child, drop_twins)
        children.append(below if axis == "/" else ("D", [below]))
    return (node.label, children)


@settings(max_examples=_examples(150), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), mss=st.integers(min_value=2, max_value=4), specs=st.lists(_specs, max_size=4))
def test_random_queries_equal_the_brute_force_oracle(data, mss: int, specs: List[tuple]) -> None:
    query = data.draw(_queries(mss))
    specs = specs + [_planted(query.root, False), _planted(query.root, True)]
    trees = [ParseTree(build_tree(spec), tid=tid) for tid, spec in enumerate(specs)]
    counts = ((tree.tid, count_matches(query.root, tree)) for tree in trees)
    expected = {tid: count for tid, count in counts if count}
    with tempfile.TemporaryDirectory() as workdir:
        for coding in CODINGS:
            index = SubtreeIndex.build(trees, mss, coding, os.path.join(workdir, f"{coding}.si"))
            try:
                executor = QueryExecutor(index)
                assert executor.execute(query).matches_per_tree == expected, coding
            finally:
                index.close()


# ----------------------------------------------------------------------
# Siblings with one label, twins or not
# ----------------------------------------------------------------------
@st.composite
def _free_queries(draw, size: int) -> QueryTree:
    """A query of at most *size* nodes whose siblings may share labels."""

    def build(budget: int) -> QueryNode:
        node = QueryNode(draw(st.sampled_from(LABELS[:2])))
        budget -= 1
        while budget and draw(st.booleans()):
            child = build(draw(st.integers(min_value=1, max_value=budget)))
            node.add_child(child, draw(st.sampled_from(["/", "/", "//"])))
            budget -= child.size()
        return node

    return QueryTree(build(size))


def _two_labels(spec: tuple) -> tuple:
    """*spec* over the first two labels only, so that siblings collide."""
    label, children = spec
    return (LABELS[LABELS.index(label) % 2], [_two_labels(child) for child in children])


_narrow_specs = _specs.map(_two_labels)


@settings(max_examples=_examples(150), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), mss=st.integers(min_value=1, max_value=3), specs=st.lists(_narrow_specs, max_size=4))
def test_same_label_siblings_bind_distinct_nodes(data, mss: int, specs: List[tuple]) -> None:
    """Same-label siblings, twins or not, bind distinct data nodes on both
    codings and in the node approach (root-split at mss 1)."""
    query = data.draw(_free_queries(5))
    specs = specs + [_planted(query.root, False), _planted(query.root, True)]
    trees = [ParseTree(build_tree(spec), tid=tid) for tid, spec in enumerate(specs)]
    counts = ((tree.tid, count_matches(query.root, tree)) for tree in trees)
    expected = {tid: count for tid, count in counts if count}
    with tempfile.TemporaryDirectory() as workdir:
        indexes = [
            SubtreeIndex.build(trees, mss, coding, os.path.join(workdir, f"{coding}.si"))
            for coding in CODINGS
        ]
        nodes = SubtreeIndex.build(trees, 1, "root-split", os.path.join(workdir, "nodes.si"))
        try:
            assert QueryExecutor(nodes).execute(query).matches_per_tree == expected
            for index in indexes:
                assert QueryExecutor(index).execute(query).matches_per_tree == expected, index.coding.name
        finally:
            for index in indexes + [nodes]:
                index.close()


#: Same-label siblings that differ only below a ``//`` edge, and a tree
#: whose *first* such child is the one with the descendant.  One key
#: ``A(A)(A)`` would store one embedding of the pair and fix which child gets
#: the ``//A``: the first case is what the property above used to draw once
#: in ~1 000 runs; the second nests it one level down, inside a component a
#: key could otherwise take whole.
_APART_BELOW_A_CUT = {
    "A(A)(A(//A))": ("A", [("A", [("A", [])]), ("A", [])]),
    "A(A(A)(A(//A)))": ("A", [("A", [("A", [("A", [])]), ("A", [])])]),
}


@pytest.mark.parametrize("text", list(_APART_BELOW_A_CUT))
@pytest.mark.parametrize(
    "coding, mss", [(coding, mss) for coding in ("filter", "root-split", "subtree-interval") for mss in (1, 2, 3, 4)]
)
def test_siblings_that_differ_only_below_a_descendant_edge(tmp_path, text: str, coding: str, mss: int) -> None:
    """One match, in every cell: the cover keeps the two children apart."""
    query = parse_query(text)
    tree = ParseTree(build_tree(_APART_BELOW_A_CUT[text]), tid=0)
    assert count_matches(query.root, tree) == 1
    index = SubtreeIndex.build([tree], mss, coding, str(tmp_path / "twins.si"))
    try:
        executor = QueryExecutor(index, store=Corpus([tree]))
        assert executor.execute(query).matches_per_tree == {0: 1}
    finally:
        index.close()


# ----------------------------------------------------------------------
# Every shape of index: one file, shards, segments + delta + tombstones
# ----------------------------------------------------------------------
def _plain(data, trees: List[ParseTree], mss: int, coding: str, path: str):
    """The corpus as one index file beside its data file: the set of one."""
    SubtreeIndex.build(trees, mss, coding, path).close()
    TreeStore.build(data_file_path(path), trees).close()
    return SegmentSet.open(path), set()


def _sharded(data, trees: List[ParseTree], mss: int, coding: str, path: str):
    """The corpus over 1-3 shards, its manifest naming the ``hash`` deal or
    relabelled to another policy; returns ``(index, tombstoned tids)``."""
    shards = data.draw(st.integers(min_value=1, max_value=3), label="shards")
    manifest_path = build_sharded(trees, mss, coding, path, shards=shards, workers=1)
    partitioner = data.draw(st.sampled_from(["hash", "round-robin"]), label="partitioner")
    if partitioner != "hash":
        payload = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
        payload["partitioner"] = partitioner
        Path(manifest_path).write_text(json.dumps(payload), encoding="utf-8")
    return SegmentSet.open(manifest_path), set()


def _live(data, trees: List[ParseTree], mss: int, coding: str, path: str):
    """The corpus as seed segment + (compacted?) second batch + delta, some
    trees deleted, compacted once more or not."""
    seed = data.draw(st.integers(min_value=0, max_value=len(trees)), label="seed trees")
    second = data.draw(st.integers(min_value=seed, max_value=len(trees)), label="second batch end")
    dead = data.draw(st.sets(st.sampled_from(range(len(trees))), max_size=3), label="deleted")
    index = LiveIndex.create(path, mss, coding, trees=trees[:seed], fsync=False)
    for tree in trees[seed:second]:
        index.add_tree(tree.root)
    if data.draw(st.booleans(), label="compact the second batch"):
        index.compact()
    for tree in trees[second:]:
        index.add_tree(tree.root)
    for tid in sorted(dead):
        index.delete_tree(tid)
    if data.draw(st.booleans(), label="compact at the end"):
        index.compact()
    return index, dead


@settings(max_examples=_examples(120), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), mss=st.integers(min_value=2, max_value=4), specs=st.lists(_specs, max_size=5))
def test_every_index_shape_equals_the_brute_force_oracle(data, mss: int, specs: List[tuple]) -> None:
    query = data.draw(_queries(mss))
    specs = specs + [_planted(query.root, False), _planted(query.root, True)]
    # Data files and the write-ahead log hold trees as Penn text, which has
    # no form for a tree of one node (``to_penn`` writes a bare label that
    # ``parse_penn`` refuses): such a tree gets a parent.
    specs = [spec if spec[1] else ("D", [spec]) for spec in specs]
    trees = [ParseTree(build_tree(spec), tid=tid) for tid, spec in enumerate(specs)]
    coding = data.draw(st.sampled_from(("filter",) + CODINGS), label="coding")
    shape = data.draw(st.sampled_from([_plain, _sharded, _live]), label="shape")
    with tempfile.TemporaryDirectory() as workdir:
        index, dead = shape(data, trees, mss, coding, os.path.join(workdir, "index"))
        try:
            counts = ((tree.tid, count_matches(query.root, tree)) for tree in trees)
            expected = {tid: count for tid, count in counts if count and tid not in dead}
            with QueryService(index, result_cache_size=0) as service:
                found = service.run(query).matches_per_tree
                assert found == expected
                assert list(found) == sorted(found)  # ascending tid
                assert service.run_many([query])[0].matches_per_tree == expected
        finally:
            index.close()


# ----------------------------------------------------------------------
# One warm service over a live index, queried between writes
# ----------------------------------------------------------------------
_writes = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.one_of(_specs, st.integers(0, 1))),  # an int: a planted query
        st.tuples(
            st.sampled_from(["delete from delta", "delete from segment"]), st.integers(0, 99)
        ),
        st.tuples(st.just("compact"), st.none()),
    ),
    max_size=10,
)


@settings(max_examples=_examples(100), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    mss=st.integers(min_value=2, max_value=4),
    seed=st.lists(_specs, max_size=4),
    writes=_writes,
)
def test_a_warm_live_service_equals_the_oracle_after_every_write(
    data, mss: int, seed: List[tuple], writes: List[tuple]
) -> None:
    """After every write, each query through a service whose caches are warm
    from the step before must equal the brute-force matcher over the trees
    that survive -- under all three codings, by ``run`` and by ``run_many``."""
    queries = [data.draw(_queries(mss), label="query") for _ in range(2)]
    planted = [_planted(query.root, False) for query in queries]
    alive = {tid: ParseTree(build_tree(spec), tid=tid) for tid, spec in enumerate(seed + planted)}
    in_segments, in_delta = list(alive), []
    with tempfile.TemporaryDirectory() as workdir:
        indexes = [
            LiveIndex.create(
                os.path.join(workdir, coding), mss, coding, trees=list(alive.values()), fsync=False
            )
            for coding in ("filter",) + CODINGS
        ]
        services = [QueryService(index) for index in indexes]
        try:
            for op, argument in [("query", None), *writes]:
                if op == "add":
                    spec = planted[argument] if isinstance(argument, int) else argument
                    (tid,) = {index.add_tree(build_tree(spec)) for index in indexes}
                    alive[tid] = ParseTree(build_tree(spec), tid=tid)
                    in_delta.append(tid)
                elif op == "compact":
                    for index in indexes:
                        index.compact()
                    in_segments, in_delta = in_segments + in_delta, []
                elif op.startswith("delete"):
                    pool = in_delta if op == "delete from delta" else in_segments
                    if not pool:
                        continue
                    tid = pool.pop(argument % len(pool))
                    for index in indexes:
                        index.delete_tree(tid)
                    del alive[tid]
                expected = []
                for query in queries:
                    counts = ((tid, count_matches(query.root, tree)) for tid, tree in sorted(alive.items()))
                    expected.append({tid: count for tid, count in counts if count})
                for service in services:
                    coding = service.index.coding.name
                    found = [service.run(query).matches_per_tree for query in queries]
                    assert found == expected, (op, coding)
                    batch = [result.matches_per_tree for result in service.run_many(queries)]
                    assert batch == expected, (op, coding)
        finally:
            for service in services:
                service.close()
            for index in indexes:
                index.close()
