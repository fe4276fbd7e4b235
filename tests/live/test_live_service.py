"""Tests for the live serving layer: fan-out results + cache invalidation."""

from __future__ import annotations

import pytest

from repro.core.index import SubtreeIndex
from repro.corpus.store import Corpus
from repro.live import LiveIndex
from repro.service.live import LiveQueryService
from repro.service.service import QueryService


@pytest.fixture()
def live(tmp_path, small_corpus):
    index = LiveIndex.create(
        str(tmp_path / "svc"), mss=3, coding="root-split", trees=list(small_corpus)[:60]
    )
    yield index
    index.close()


def plain_service_over(tmp_path, live: LiveIndex, tag: str) -> QueryService:
    trees = list(live.store)
    index = SubtreeIndex.build(
        trees, mss=live.mss, coding=live.coding.name, path=str(tmp_path / f"{tag}.si")
    )
    return QueryService(index, store=Corpus(trees))


QUERIES = ["NP(DT)(NN)", "S(NP)(VP(VBZ))", "VP(VBZ)", "NP(DT)"]


def test_run_matches_plain_service(tmp_path, live, small_corpus) -> None:
    for tree in list(small_corpus)[60:75]:
        live.add_tree(tree.root)
    live.delete_tree(5)
    service = LiveQueryService(live)
    reference = plain_service_over(tmp_path, live, "ref")
    try:
        for text in QUERIES:
            mine = service.run(text)
            theirs = reference.run(text)
            assert mine.matches_per_tree == theirs.matches_per_tree
            assert list(mine.matches_per_tree) == sorted(mine.matches_per_tree)
    finally:
        service.close()
        reference.close()


def test_mutations_invalidate_results(tmp_path, live) -> None:
    service = LiveQueryService(live)
    try:
        text = "NP(DT)(NN)"
        before = service.run(text)
        repeat = service.run(text)
        assert repeat is before  # served whole from the result cache

        tid = live.add_tree("(ROOT (S (NP (DT the) (NN fish)) (VP (VBZ swims))))")
        after_add = service.run(text)
        assert after_add is not before  # stale result was dropped
        assert after_add.matches_per_tree.get(tid) == 1
        assert after_add.total_matches == before.total_matches + 1

        live.delete_tree(tid)
        after_delete = service.run(text)
        assert after_delete.matches_per_tree == before.matches_per_tree
        assert service.stats().invalidations == 2
    finally:
        service.close()


def test_result_resident_tracks_the_index_version(live) -> None:
    # The HTTP server's where-to-run probe: true only while run() would be
    # a result-cache hit, and it counts as neither a hit nor a miss.
    service = LiveQueryService(live)
    try:
        prepared = service.prepare("NP(DT)(NN)")
        assert not service.result_resident(prepared)
        service.run("NP(DT)(NN)")
        lookups = service.stats().results.lookups
        assert service.result_resident(prepared)
        live.add_tree("(ROOT (S (NP (DT the) (NN fish)) (VP (VBZ swims))))")
        assert not service.result_resident(prepared)  # tagged with the old version
        assert service.stats().results.lookups == lookups
    finally:
        service.close()


def test_epoch_bump_clears_plans(live) -> None:
    service = LiveQueryService(live)
    try:
        service.run("NP(DT)(NN)")
        service.run("NP(DT)(NN)")
        assert service.stats().plans.hits > 0
        live.add_tree("(ROOT (NP (DT a) (NN b)))")
        live.compact()
        assert live.epoch == 1
        stats_before = service.stats().plans
        service.run("NP(DT)(NN)")  # re-prepared: the epoch bump dropped plans
        stats_after = service.stats().plans
        assert stats_after.misses > stats_before.misses
        assert service.stats().epoch == 1
    finally:
        service.close()


def test_segment_posting_caches_serve_repeats(live) -> None:
    """The fan-out path reads through per-segment posting caches, and adds
    do not invalidate them (segments are immutable within an epoch)."""
    service = LiveQueryService(live, result_cache_size=0)
    try:
        service.run("NP(DT)(NN)")
        cold = service.stats().postings
        assert cold.misses > 0
        service.run("NP(DT)(NN)")
        assert service.stats().postings.hits > cold.hits
        live.add_tree("(ROOT (NP (DT a) (NN b)))")  # delta-only mutation
        service.run("NP(DT)(NN)")
        warm = service.stats().postings
        assert warm.hits > cold.hits + 1  # segment cache survived the add
        live.compact()  # epoch bump: caches rebuilt for the new segment set
        service.run("NP(DT)(NN)")
        assert service.stats().postings.misses > warm.misses
    finally:
        service.close()


def test_stale_result_is_never_served_after_racing_a_mutation(live) -> None:
    """A result tagged with an old index version is not served even if it
    lands in the cache after the invalidation sweep (write-side race)."""
    service = LiveQueryService(live)
    try:
        text = "NP(DT)(NN)"
        stale_version = live.version
        stale = service.run(text)
        tid = live.add_tree("(ROOT (S (NP (DT the) (NN crab)) (VP (VBZ digs))))")
        # Simulate the race: a slow reader finishes now and stores the result
        # it computed against the pre-mutation state.
        service._remember_result(service.prepare(text), stale, stale_version)
        served = service.run(text)
        assert served is not stale
        assert served.matches_per_tree.get(tid) == 1
    finally:
        service.close()


def test_run_many_batches_and_dedups(tmp_path, live) -> None:
    service = LiveQueryService(live, result_cache_size=0)
    reference = plain_service_over(tmp_path, live, "batch-ref")
    try:
        results = service.run_many(QUERIES + QUERIES)
        expected = [reference.run(text) for text in QUERIES] * 2
        for mine, theirs in zip(results, expected):
            assert mine.matches_per_tree == theirs.matches_per_tree
        assert service.stats().batch_keys_deduped > 0
    finally:
        service.close()
        reference.close()


def test_filter_coding_service(tmp_path, small_corpus) -> None:
    live = LiveIndex.create(
        str(tmp_path / "filter"), mss=3, coding="filter", trees=list(small_corpus)[:40]
    )
    try:
        for tree in list(small_corpus)[40:50]:
            live.add_tree(tree.root)
        live.delete_tree(2)
        service = LiveQueryService(live)
        reference = plain_service_over(tmp_path, live, "filter-ref")
        try:
            for text in QUERIES:
                assert service.run(text).matches_per_tree == reference.run(text).matches_per_tree
        finally:
            service.close()
            reference.close()
    finally:
        live.close()


def test_open_dispatches_to_live_service(tmp_path, tiny_corpus) -> None:
    live = LiveIndex.create(
        str(tmp_path / "dispatch"), mss=2, coding="root-split", trees=list(tiny_corpus)
    )
    manifest_path = live.manifest_path
    live.close()
    service = QueryService.open(manifest_path)
    try:
        assert isinstance(service, LiveQueryService)
        result = service.run("NP(DT)")
        assert result.total_matches > 0
        stats = service.stats()
        assert stats.epoch == 0
        assert stats.wal_ops == 0
    finally:
        service.close()
