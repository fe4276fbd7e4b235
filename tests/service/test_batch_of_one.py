"""``run(q)`` is ``run_many([q])``: one cached path behind both.

A single query goes through the loop a batch does, so it answers, caches and
reads its lists exactly as a batch of one would -- on a plain file, a
sharded build's shards and a live index's segments and delta, under every
coding.  Only the batch counters tell the two calls apart.
"""

from __future__ import annotations

import pytest

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.corpus.store import Corpus
from repro.live import LiveIndex
from repro.service.service import QueryService
from repro.shard import build_sharded
from repro.workloads.wh import generate_wh_queries

CODINGS = ("filter", "root-split", "subtree-interval")
FLAVORS = ("plain", "sharded", "live")
#: A WH template whose root-split mss-3 cover holds the key ``NP(DT)(NN)`` twice.
REPEATING = "S(NP(DT)(NN))(VP(VBZ)(NP(DT)(JJ)(NN)))"
#: WH templates, an absent label and a repeated child (twins in one cover).
QUERIES = [item.query for item in generate_wh_queries()[:12]] + [REPEATING, "NP(XYZ)(NN)", "NP(NN)(NN)"]


@pytest.fixture(scope="module")
def indexes(tmp_path_factory, small_corpus):
    """``(flavor, coding) -> open index``: a live one has a segment and a
    delta, and a tombstone in each."""
    trees = list(small_corpus)
    workdir = tmp_path_factory.mktemp("batch-of-one")
    opened = {}
    for coding in CODINGS:
        plain = SubtreeIndex.build(trees, mss=3, coding=coding, path=str(workdir / f"plain-{coding}.si"))
        opened["plain", coding] = SegmentSet.of(plain, Corpus(trees))
        opened["sharded", coding] = SegmentSet.open(build_sharded(
            trees, mss=3, coding=coding, path=str(workdir / f"sharded-{coding}.si"), shards=3, workers=1
        ))
        live = LiveIndex.create(str(workdir / f"live-{coding}"), 3, coding, trees=trees[:80], fsync=False)
        for tree in trees[80:]:
            live.add_tree(tree.root)
        live.delete_tree(5)
        live.delete_tree(100)
        opened["live", coding] = live
    yield opened
    for index in opened.values():
        index.close()


def _result_entries(service: QueryService, text: str) -> list:
    """What *service*'s result cache holds of *text*, part by part: the tag,
    the removal count and the matches."""
    normalized = service.prepare(text).normalized
    entries = []
    for part in service.index.snapshot.parts:
        tag, (count, result) = service._result_cache.peek((normalized, part.key))
        entries.append((tag, count, result.matches_per_tree))
    return entries


@pytest.mark.parametrize("coding", CODINGS)
@pytest.mark.parametrize("flavor", FLAVORS)
def test_run_is_run_many_of_one(indexes, flavor, coding) -> None:
    index = indexes[flavor, coding]
    single, batch = QueryService(index), QueryService(index)
    try:
        for text in QUERIES:
            alone = single.run(text)
            assert batch.run_many([text])[0].matches_per_tree == alone.matches_per_tree
            assert _result_entries(batch, text) == _result_entries(single, text)
        ran, batched = single.stats().as_dict(), batch.stats().as_dict()
        assert ran["caches"] == batched["caches"]
        assert ran["queries"] == batched["queries"] == len(QUERIES)
        assert (ran["batches"], batched["batches"]) == (0, len(QUERIES))
        assert ran["batch_keys_deduped"] == 0
    finally:
        single.close()
        batch.close()


def test_a_run_reads_a_repeated_cover_key_once(indexes) -> None:
    index = indexes["plain", "root-split"]
    service = QueryService(index)
    try:
        keys = service.prepare(REPEATING).key_bytes
        assert len(set(keys)) < len(keys)
        lookups = index.probe_stats.gets
        service.run(REPEATING)
        assert index.probe_stats.gets - lookups == len(set(keys))
        assert service.stats().postings.hits == 0
        assert service.stats().batch_keys_deduped == 0  # a run is no batch
    finally:
        service.close()
