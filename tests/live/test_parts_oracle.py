"""A live query's parts against the brute-force matcher, over drawn histories.

A live index answers a query per part -- each segment and its delta, keyed
by a lineage that a compaction's rewrite or flush keeps, and tagged with the
trees it was written from or the trees added to the delta -- and caches each
part's result and lists under that tag, so what one write leaves valid is
served across it: a delete moves no tag, and the trees removed from a part
since an entry was cached are cut from it when it is served.  The parts a
query misses are joined once and the answer cut back into each one's
result.  Hypothesis draws the writes
that move some tags and not others: adds from a fixed pool of generated
trees, deletes of a live tid from the delta, from any segment or from the
newest one (where a compaction put the trees the delta held), compactions,
and plain repeats of the queries, in histories long enough to reach three
segments and more.  After every op, ``run``, ``run_many`` and a second
``run`` of a sample of the WH templates must equal
:func:`~repro.trees.matching.count_matches` over the trees alive, tid order
included -- under all three codings, with the result cache at its default
size and switched off, and each of those with the posting cache on and off:
both cuts, of a cached list and of a cached answer, and the cut of a list
as it is fetched.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Tuple

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.live import LiveIndex
from repro.service import QueryService
from tests.exec.test_oracle_generative import _examples
from tests.live.test_compaction_oracle import CODINGS, COUNTS, MSS, POOL, QUERIES, _tree

#: Every fourth WH template, and each one's position in ``COUNTS``.
SAMPLE = list(range(0, len(QUERIES), 4))
TEXTS = [QUERIES[position].to_string() for position in SAMPLE]

_seeds = st.lists(st.integers(0, len(POOL) - 1), max_size=4)
_history = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, len(POOL) - 1)),
        st.tuples(
            st.sampled_from(["delete from delta", "delete from segment", "delete from newest segment"]),
            st.integers(0, 99),
        ),
        st.tuples(st.sampled_from(["compact", "query"]), st.none()),
    ),
    max_size=16,
)
#: Three segments and a delta, then a delete from each of the segments.
_THREE_SEGMENTS = [
    ("add", 0), ("add", 1), ("compact", None), ("add", 2), ("add", 3), ("compact", None),
    ("add", 4), ("query", None), ("delete from newest segment", 1), ("delete from segment", 0),
    ("delete from delta", 0), ("compact", None),
]


def _assert_answers(services: List[QueryService], pool_of: Dict[int, int], op: Tuple) -> None:
    expected = []
    for position in SAMPLE:
        counts = ((tid, COUNTS[pool_of[tid]][position]) for tid in sorted(pool_of))
        expected.append([(tid, count) for tid, count in counts if count])
    for service in services:
        stats = service.stats()
        where = (op, service.index.coding.name, stats.results.capacity, stats.postings.capacity)
        for calls in ("run", "run_many", "run again"):
            if calls == "run_many":
                results = service.run_many(TEXTS)
            else:
                results = [service.run(text) for text in TEXTS]
            found = [list(result.matches_per_tree.items()) for result in results]
            assert found == expected, (*where, calls)


@settings(max_examples=_examples(25), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=_seeds, history=_history)
@example(seed=[5, 0], history=_THREE_SEGMENTS)
def test_every_part_answers_as_the_oracle_after_every_write(seed: List[int], history: List[Tuple]) -> None:
    pool_of = dict(enumerate(seed))  # alive tid -> its pool tree
    segments: List[List[int]] = [list(pool_of)] if seed else []  # each one's alive tids, in tid order
    in_delta: List[int] = []
    with tempfile.TemporaryDirectory() as workdir:
        trees = [_tree(tid, pool_of) for tid in sorted(pool_of)]
        # A posting cache belongs to the index it is attached to: an index
        # per coding and posting-cache size, and a service per result-cache size.
        shapes = [(coding, lists) for coding in CODINGS for lists in (4096, 0)]
        indexes = [
            LiveIndex.create(os.path.join(workdir, f"{coding}-{lists}"), MSS, coding, trees=trees, fsync=False)
            for coding, lists in shapes
        ]
        services = [
            QueryService(index, result_cache_size=results, postings_cache_size=lists)
            for index, (_, lists) in zip(indexes, shapes) for results in (1024, 0)
        ]
        try:
            for op, argument in [("query", None), *history]:
                if op == "add":
                    (tid,) = {index.add_tree(POOL[argument]) for index in indexes}
                    pool_of[tid] = argument
                    in_delta.append(tid)
                elif op == "compact":
                    for index in indexes:
                        index.compact()
                    segments = [tids for tids in (*segments, in_delta) if tids]
                    in_delta = []
                    assert {index.segment_count for index in indexes} == {len(segments)}
                elif op.startswith("delete"):
                    if op == "delete from delta":
                        pools = [in_delta]
                    else:
                        pools = segments[-1:] if op == "delete from newest segment" else segments
                    candidates = [(pool, tid) for pool in pools for tid in pool]
                    if not candidates:
                        continue
                    pool, tid = candidates[argument % len(candidates)]
                    pool.remove(tid)
                    for index in indexes:
                        index.delete_tree(tid)
                    del pool_of[tid]
                _assert_answers(services, pool_of, (op, argument))
        finally:
            for service in services:
                service.close()
            for index in indexes:
                index.close()
