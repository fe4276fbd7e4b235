"""The service's counters after a fixed WH sequence, pinned.

``/stats`` and ``/metrics`` print what :meth:`QueryService.stats` reports,
so its core keys -- cache counters and probe counts -- must keep their
values for the same calls whatever the caches are built of.  The figures
below are those of the code that kept the posting cache on the index, but
for the posting-cache hits: a ``run`` is a batch of one, so a cover that
repeats a key (two of the WH queries' do) reads its list once, as a batch
always did -- one posting-cache hit (and probe) fewer a part it missed.
The posting and probe counts are those of root-split keys filled to
``mss``: the 48 WH covers read 45 distinct keys, not 41, and fewer keys
repeat within a batch.
"""

from __future__ import annotations

import pytest

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.corpus.store import Corpus
from repro.live import LiveIndex
from repro.service.service import QueryService
from repro.workloads.wh import generate_wh_queries

WH = [item.query for item in generate_wh_queries()]
CORE = ("queries", "batches", "batch_keys_deduped", "caches", "probes")


def _cache(hits: int, misses: int, size: int, capacity: int) -> dict:
    lookups = hits + misses
    return {
        "hits": hits, "misses": misses, "lookups": lookups, "evictions": 0,
        "size": size, "capacity": capacity, "hit_rate": hits / lookups,
    }


def _probes(gets: int, cache_hits: int, tree_descents: int, node_decodes: int) -> dict:
    return {
        "gets": gets, "cache_hits": cache_hits, "tree_descents": tree_descents,
        "node_decodes": node_decodes, "hit_rate": cache_hits / gets,
    }


EXPECTED = {
    "plain": {
        "queries": 84, "batches": 1, "batch_keys_deduped": 77,
        "caches": {
            "plans": _cache(36, 48, 48, 256),
            "postings": _cache(70, 45, 45, 4096),
            "results": _cache(36, 48, 48, 1024),
        },
        "probes": _probes(115, 70, 45, 0),
    },
    "live": {
        "queries": 108, "batches": 2, "batch_keys_deduped": 213,
        "caches": {
            "plans": _cache(60, 48, 48, 256),
            "postings": _cache(208, 151, 113, 4096),
            "results": _cache(88, 144, 112, 1024),
        },
        "probes": _probes(359, 208, 49, 6),
    },
}


@pytest.mark.parametrize("flavor", ["plain", "live"])
def test_stats_after_a_fixed_wh_sequence(tmp_path, small_corpus, flavor) -> None:
    trees = list(small_corpus)
    if flavor == "plain":
        built = SubtreeIndex.build(trees, mss=3, coding="root-split", path=str(tmp_path / "c.si"))
        index = SegmentSet.of(built, Corpus(trees))
    else:
        index = LiveIndex.create(str(tmp_path / "l"), mss=3, coding="root-split", trees=trees[:60])
    service = QueryService(index)
    try:
        for text in WH[:20]:
            service.run(text)
        service.run_many(WH)
        if flavor == "live":
            for tree in trees[60:66]:
                index.add_tree(tree.root)
            index.delete_tree(3)
            service.run_many(WH[::2])
            index.compact()
        for text in WH[::3]:
            service.run(text)
        stats = service.stats().as_dict()
        assert {key: stats[key] for key in CORE} == EXPECTED[flavor]
    finally:
        service.close()
        index.close()
