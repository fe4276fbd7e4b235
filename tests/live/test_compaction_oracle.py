"""Compaction against a fresh build and the brute-force matcher, over drawn histories.

``test_live.py::TestCompactionIsAMerge`` pins one hand-picked sequence of
adds, deletes and compactions.  Here Hypothesis draws the sequence: adds
from a fixed pool of generated trees (one-node trees included), deletes of
a live tid from the delta or from a segment, and compactions, applied in
step to a live index of each coding at mss 3.  After every compaction each
segment's index and data file must be the bytes ``SubtreeIndex.build`` /
``TreeStore.build`` write over the trees the segment lists (build time
masked, as in ``TestCompactionIsAMerge``); after every op the WH templates'
answers must equal :func:`~repro.trees.matching.count_matches` over the
trees alive.

A compaction cuts dead rows out of stored bodies, so the draws must reach
the cuts that are easy to get wrong: a segment whose every tree dies, a key
whose every posting dies in a source that survives, and a subtree-interval
key with two embeddings at one root next to a dead tree's rows.  The
explicit example reaches all three whatever is drawn, and the test checks
that its run did.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Set, Tuple

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.index import SubtreeIndex
from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import TreeStore
from repro.exec.executor import QueryExecutor
from repro.live import LiveIndex
from repro.trees.matching import count_matches
from repro.trees.node import ParseTree
from repro.trees.penn import parse_penn, to_penn
from repro.workloads.wh import generate_wh_queries
from tests.exec.test_oracle_generative import _examples
from tests.live.test_live import TestCompactionIsAMerge as _Merge  # an alias: not collected twice

CODINGS = ("filter", "root-split", "subtree-interval")
MSS = 3
#: Six generated sentences -- every one has keys no other tree has, and
#: subtree-interval keys with two embeddings at one root -- and two one-node trees.
POOL = [to_penn(tree.root) for tree in CorpusGenerator(seed=3).generate_list(6)] + ["(S)", "(NN)"]
QUERIES = [item.query for item in generate_wh_queries()]
#: ``COUNTS[p][q]``: matches of query *q* in pool tree *p*.
COUNTS = [[count_matches(query.root, parse_penn(penn)) for query in QUERIES] for penn in POOL]

SEGMENT_DIES = "a segment whose every tree dies"
KEY_DIES = "a key whose every posting dies"
TWINS_NEXT_TO_DEAD = "two embeddings at one root next to a dead tid"

_seeds = st.lists(st.integers(0, len(POOL) - 1), max_size=3)
_history = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, len(POOL) - 1)),
        st.tuples(st.sampled_from(["delete from delta", "delete from segment"]), st.integers(0, 99)),
        st.tuples(st.just("compact"), st.none()),
    ),
    max_size=10,
)

def _edges(live: LiveIndex) -> Set[str]:
    """The edge cases the compaction about to run over *live* will cut."""
    reached: Set[str] = set()
    for source in live.snapshot.sources:
        dead = source.dead
        if not dead:
            continue
        if dead.issuperset(source.store.tids()):
            if source.entry is not None:
                reached.add(SEGMENT_DIES)
            continue
        for _, postings in source.index.items():
            tids = list(postings.tids)
            if dead.issuperset(tids):
                reached.add(KEY_DIES)
            if postings.orders is None:
                continue
            roots = postings.slots[0][0]
            runs = sorted({tid: None for tid in tids})  # distinct tids, ascending
            for before, tid, after in zip([None, *runs], runs, [*runs[1:], None]):
                rows = [roots[row] for row, at in enumerate(tids) if at == tid]
                if tid not in dead and len(rows) > len(set(rows)) and {before, after} & dead:
                    reached.add(TWINS_NEXT_TO_DEAD)
    return reached


def _tree(tid: int, pool_of: Dict[int, int]) -> ParseTree:
    return ParseTree(parse_penn(POOL[pool_of[tid]]), tid=tid)


def _assert_segments_are_fresh_builds(live: LiveIndex, pool_of: Dict[int, int], workdir: str) -> None:
    coding = live.coding.name
    builds = tempfile.mkdtemp(dir=workdir)
    for segment in live.segments:
        trees = [_tree(tid, pool_of) for tid in segment.store.tids()]
        fresh = os.path.join(builds, f"{coding}-{segment.entry.segment_id}")
        SubtreeIndex.build(trees, mss=MSS, coding=coding, path=fresh + ".si").close()
        TreeStore.build(fresh + ".data", trees).close()
        for written, built in ((segment.entry.index_path, ".si"), (segment.entry.data_path, ".data")):
            path = live.manifest.resolve(live.manifest_path, written)
            assert _Merge._file_bytes(path) == _Merge._file_bytes(fresh + built), (coding, written)


def _assert_answers(indexes: List[LiveIndex], pool_of: Dict[int, int], op: Tuple) -> None:
    executors = [QueryExecutor(index) for index in indexes]
    for position, query in enumerate(QUERIES):
        counts = ((tid, COUNTS[pool_of[tid]][position]) for tid in sorted(pool_of))
        expected = {tid: count for tid, count in counts if count}
        for executor in executors:
            found = executor.execute(query).matches_per_tree
            assert found == expected, (op, executor.index.coding.name, query.to_string())


@settings(max_examples=_examples(30), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=_seeds, history=_history)
# Segment 1 is two copies of tree 0 (twin keys) and tree 5: one copy dies
# next to the other, and tree 5's own keys lose every posting; segment 0
# dies whole; tree 4 dies in the delta beside tree 0, its keys with it.
@example(seed=[1, 6], history=[
    ("add", 0), ("add", 0), ("add", 5), ("compact", None),
    ("delete from segment", 2), ("delete from segment", 3),
    ("delete from segment", 0), ("delete from segment", 0),
    ("add", 0), ("add", 4), ("delete from delta", 1), ("compact", None),
])
def _histories(reached: Set[str], seed: List[int], history: List[Tuple]) -> None:
    pool_of = dict(enumerate(seed))  # alive tid -> its pool tree
    in_segments, in_delta = list(pool_of), []
    with tempfile.TemporaryDirectory() as workdir:
        trees = [_tree(tid, pool_of) for tid in in_segments]
        indexes = [
            LiveIndex.create(os.path.join(workdir, coding), MSS, coding, trees=trees, fsync=False)
            for coding in CODINGS
        ]
        try:
            for op, argument in history:
                if op == "add":
                    (tid,) = {index.add_tree(POOL[argument]) for index in indexes}
                    pool_of[tid] = argument
                    in_delta.append(tid)
                elif op == "compact":
                    reached.update(_edges(indexes[-1]))
                    for index in indexes:
                        index.compact()
                        _assert_segments_are_fresh_builds(index, pool_of, workdir)
                    in_segments, in_delta = in_segments + in_delta, []
                else:
                    pool = in_delta if op == "delete from delta" else in_segments
                    if not pool:
                        continue
                    tid = pool.pop(argument % len(pool))
                    for index in indexes:
                        index.delete_tree(tid)
                    del pool_of[tid]
                _assert_answers(indexes, pool_of, (op, argument))
        finally:
            for index in indexes:
                index.close()


def test_compaction_over_drawn_histories_is_a_fresh_build() -> None:
    reached: Set[str] = set()
    _histories(reached)
    assert reached == {SEGMENT_DIES, KEY_DIES, TWINS_NEXT_TO_DEAD}
