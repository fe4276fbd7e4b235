"""Tests for serving a live index: the one ``QueryService``, results equal to
a rebuild, and caches that never serve what a mutation made stale."""

from __future__ import annotations

import pytest

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.corpus.store import Corpus
from repro.exec import fetch_postings, join_postings
from repro.live import LiveIndex
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
    return QueryService(SegmentSet.of(index, Corpus(trees)))


QUERIES = ["NP(DT)(NN)", "S(NP)(VP(VBZ))", "VP(VBZ)", "NP(DT)"]


def test_run_matches_plain_service(tmp_path, live, small_corpus) -> None:
    for tree in list(small_corpus)[60:75]:
        live.add_tree(tree.root)
    live.delete_tree(5)
    service = QueryService(live)
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
    service = QueryService(live)
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
        assert service.stats().extras["live"]["invalidations"] == 2
    finally:
        service.close()


def test_result_resident_tracks_the_index_version(live) -> None:
    # The HTTP server's where-to-run probe: true only while run() would be
    # a result-cache hit, and it counts as neither a hit nor a miss.
    service = QueryService(live)
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


def test_plans_survive_mutations_and_an_epoch_bump(live) -> None:
    # A plan is a pure function of the query, mss, strategy and pad.
    service = QueryService(live)
    try:
        service.run("NP(DT)(NN)")
        live.add_tree("(ROOT (NP (DT a) (NN b)))")
        live.compact()
        assert live.epoch == 1
        stats_before = service.stats().plans
        service.run("NP(DT)(NN)")
        stats_after = service.stats().plans
        assert stats_after.misses == stats_before.misses
        assert stats_after.hits > stats_before.hits
        assert service.stats().extras["live"]["epoch"] == 1
    finally:
        service.close()


def test_merged_posting_cache_serves_repeats_until_a_mutation(live) -> None:
    """One posting cache holds two levels per key: the list merged over
    segments + delta, and below it the segments' part.  A mutation sweeps
    the merged lists only; a compaction empties the cache."""
    service = QueryService(live, result_cache_size=0)
    try:
        service.run("NP(DT)(NN)")  # one cover key at mss 3
        cold = service.stats().postings
        assert cold.misses == 2 and cold.size == 2
        service.run("NP(DT)(NN)")
        warm = service.stats().postings
        assert warm.hits == cold.hits + 1 and warm.misses == cold.misses
        live.add_tree("(ROOT (NP (DT a) (NN b)))")
        assert service.stats().postings.size == 1  # the segment part stays
        service.run("NP(DT)(NN)")
        after = service.stats().postings
        assert (after.misses, after.hits, after.size) == (warm.misses + 1, warm.hits + 1, 2)
        live.compact()
        assert service.stats().postings.size == 0
    finally:
        service.close()


def test_a_write_to_the_delta_costs_no_descent(tmp_path, live) -> None:
    """An add, or a delete of a delta tree, leaves the cached segment parts
    valid: re-running the queries descends into no segment's B+Tree, and
    the answers are a rebuild's over the surviving trees."""
    service = QueryService(live, result_cache_size=0)
    try:
        for text in QUERIES:
            service.run(text)
        warm = service.stats().postings.size
        descents = live.probe_snapshot().tree_descents
        assert descents > 0
        tid = live.add_tree("(ROOT (S (NP (DT the) (NN fish)) (VP (VBZ swims))))")
        assert service.stats().postings.size * 2 == warm  # the merged level is swept
        assert service.run("NP(DT)(NN)").matches_per_tree.get(tid) == 1
        live.add_tree("(ROOT (S (NP (DT a) (NN crab)) (VP (VBZ digs))))")
        live.delete_tree(tid)
        reference = plain_service_over(tmp_path, live, "delta-writes")
        try:
            for text in QUERIES:
                assert service.run(text).matches_per_tree == reference.run(text).matches_per_tree
        finally:
            reference.close()
        assert live.probe_snapshot().tree_descents == descents
    finally:
        service.close()


def test_a_delete_in_a_segment_rereads_each_cached_part_once(live) -> None:
    """After a segment tree is deleted, each key's segment part is read
    again once -- one descent per segment -- and later writes to the delta
    do not read it again."""
    service = QueryService(live, result_cache_size=0)
    try:
        keys = {key for text in QUERIES for key in service.prepare(text).key_bytes}
        for text in QUERIES:
            service.run(text)
        victim = min(service.run("NP(DT)(NN)").matches_per_tree)
        assert victim in live.snapshot.sources[0].store  # a tree of the seed segment
        descents = live.probe_snapshot().tree_descents
        live.delete_tree(victim)
        for text in QUERIES + QUERIES:
            assert victim not in service.run(text).matches_per_tree
        reread = live.probe_snapshot().tree_descents
        assert reread == descents + len(keys) * live.segment_count
        live.add_tree("(ROOT (NP (DT a) (NN b)))")
        for text in QUERIES:
            service.run(text)
        assert live.probe_snapshot().tree_descents == reread
    finally:
        service.close()


def test_stale_segment_part_is_never_served(live) -> None:
    """The segment-level twin of the test below: a part put with an older
    tag -- a slow reader's, from before a segment delete or of the epoch a
    compaction replaced -- is never served."""
    service = QueryService(live, result_cache_size=0)
    try:
        key = b"NP(DT)"
        stale_tag = (live.epoch, 0)
        stale = live.lookup(key)  # seed segment only: the delta is empty
        victim = stale.tids[0]
        live.delete_tree(victim)
        live.postings_cache.put((key,), (stale_tag, stale))  # the slow reader's put
        expected = [tid for tid in stale.tids if tid != victim]
        assert list(live.lookup(key).tids) == expected
        live.compact()
        live.postings_cache.put((key,), (stale_tag, stale))  # a part of the replaced segment
        assert list(live.lookup(key).tids) == expected
    finally:
        service.close()


def test_a_compaction_drops_both_levels(live) -> None:
    service = QueryService(live, result_cache_size=0)
    try:
        live.add_tree("(ROOT (NP (DT a) (NN b)))")
        for text in QUERIES:
            service.run(text)
        assert service.stats().postings.size > 0
        descents = live.probe_snapshot().tree_descents
        live.compact()
        assert service.stats().postings.size == 0
        for text in QUERIES:
            service.run(text)
        assert live.probe_snapshot().tree_descents > descents  # read from the new segments
    finally:
        service.close()


def test_stale_result_is_never_served_after_racing_a_mutation(live) -> None:
    """A result tagged with an old index version is not served even if it
    lands in the cache after the invalidation sweep (write-side race)."""
    service = QueryService(live)
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


def test_stale_posting_list_is_never_served_after_racing_a_mutation(live) -> None:
    """The posting twin: a merged list that lands in the cache after the
    mutation's sweep, tagged with the version it was read at, is not served."""
    service = QueryService(live, result_cache_size=0)
    try:
        key = b"NP(DT)"
        stale_version = live.version
        stale = live.lookup(key)
        tid = live.add_tree("(ROOT (S (NP (DT the) (NN crab)) (VP (VBZ digs))))")
        live.postings_cache.put(key, (stale_version, stale))  # the slow reader's put
        served = live.lookup(key)
        assert served is not stale
        assert served.tids[-1] == tid and tid not in stale.tids
        assert live.lookup(key) is served  # re-cached under the current version
    finally:
        service.close()


def test_run_many_batches_and_dedups(tmp_path, live) -> None:
    service = QueryService(live, result_cache_size=0)
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
        service = QueryService(live)
        reference = plain_service_over(tmp_path, live, "filter-ref")
        try:
            for text in QUERIES:
                assert service.run(text).matches_per_tree == reference.run(text).matches_per_tree
        finally:
            service.close()
            reference.close()
    finally:
        live.close()


@pytest.mark.parametrize("then_compact", [False, True], ids=["delete", "delete+compact"])
def test_filter_phase_survives_a_delete_racing_it(tmp_path, small_corpus, then_compact) -> None:
    """A filter-coded query whose tid lists were read before a delete (and a
    compaction) landed: the filter phase meets a candidate whose tree is
    gone, and answers as of after the delete instead of raising."""
    live = LiveIndex.create(
        str(tmp_path / "race"), mss=3, coding="filter", trees=list(small_corpus)[:40]
    )
    try:
        for tree in list(small_corpus)[40:50]:
            live.add_tree(tree.root)
        service = QueryService(live)
        prepared = service.prepare("NP(DT)(NN)")
        postings = fetch_postings(prepared.cover, live.lookup)
        before = service.run("NP(DT)(NN)").matches_per_tree
        in_segment, in_delta = min(before), max(before)
        assert in_segment < 40 <= in_delta

        live.delete_tree(in_segment)
        live.delete_tree(in_delta)
        if then_compact:
            live.compact()
        raced = join_postings(
            prepared.query, prepared.cover, postings, live.coding, store=service.store
        )
        expected = {tid: n for tid, n in before.items() if tid not in (in_segment, in_delta)}
        assert raced.matches_per_tree == expected
        assert service.run("NP(DT)(NN)").matches_per_tree == expected
        service.close()
    finally:
        live.close()


def test_open_serves_a_live_manifest(tmp_path, tiny_corpus) -> None:
    live = LiveIndex.create(
        str(tmp_path / "dispatch"), mss=2, coding="root-split", trees=list(tiny_corpus)
    )
    manifest_path = live.manifest_path
    live.close()
    service = QueryService.open(manifest_path)
    try:
        assert isinstance(service.index, LiveIndex)
        result = service.run("NP(DT)")
        assert result.total_matches > 0
        stats = service.stats().extras["live"]
        assert stats["epoch"] == 0
        assert stats["wal_ops"] == 0
    finally:
        service.close()
