"""Tests for serving a live index: the one ``QueryService``, results equal to
a rebuild, and caches that never serve what a mutation made stale."""

from __future__ import annotations

import pytest

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet, Source
from repro.corpus.store import Corpus
from repro.exec import fetch_postings, join_postings
from repro.live import LiveIndex
from repro.service import service as service_module
from repro.service.service import QueryService


@pytest.fixture()
def live(tmp_path, small_corpus):
    index = LiveIndex.create(
        str(tmp_path / "svc"), mss=3, coding="root-split", trees=list(small_corpus)[:60]
    )
    yield index
    index.close()


@pytest.fixture(params=["root-split", "subtree-interval"])
def coded_live(request, tmp_path, small_corpus):
    """The ``live`` index under each structural coding."""
    index = LiveIndex.create(
        str(tmp_path / "coded"), mss=3, coding=request.param, trees=list(small_corpus)[:60]
    )
    yield index
    index.close()


def grow(live: LiveIndex, trees, segments: int, per_segment: int = 5) -> None:
    """Add *per_segment* of *trees* and compact until *live* has *segments*
    segments; then add three more, so the delta holds trees too."""
    trees = iter(trees)
    while live.segment_count < segments:
        for _ in range(per_segment):
            live.add_tree(next(trees).root)
        live.compact()
    for _ in range(3):
        live.add_tree(next(trees).root)


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


def test_the_posting_cache_holds_each_part_until_its_tag_moves(live) -> None:
    """One list per key and part: each segment's and the delta's.  An add
    leaves the segment's list servable and replaces the delta's on its next
    read -- a stale tag is a miss; a compaction sweeps nothing, and the
    segment it keeps keeps its list."""
    service = QueryService(live, result_cache_size=0)
    try:
        service.run("NP(DT)(NN)")  # one cover key at mss 3
        cold = service.stats().postings
        assert (cold.hits, cold.misses, cold.size) == (0, 2, 2)
        service.run("NP(DT)(NN)")
        warm = service.stats().postings
        assert (warm.hits, warm.misses) == (2, 2)
        live.add_tree("(ROOT (NP (DT a) (NN b)))")
        assert service.stats().postings.size == 2  # nothing is swept
        service.run("NP(DT)(NN)")
        after = service.stats().postings
        assert (after.hits, after.misses, after.size) == (3, 3, 2)
        live.compact()  # the delta becomes segment 1; segment 0 is kept
        assert service.stats().postings.size == 2
        service.run("NP(DT)(NN)")
        kept = service.stats().postings
        assert (kept.hits, kept.misses, kept.size) == (4, 5, 3)  # segment 0's list is served
    finally:
        service.close()


@pytest.mark.parametrize("result_cache_size", [1024, 0], ids=["results", "lists"])
def test_a_write_to_the_delta_costs_no_descent(tmp_path, live, result_cache_size) -> None:
    """An add, or a delete of a delta tree, leaves the segments' cached
    results and lists valid: re-running the queries joins only the delta's
    part (or, with no result cache, reads the segments' lists from the
    cache), descends into no segment's B+Tree, and answers what a rebuild
    over the surviving trees answers."""
    service = QueryService(live, result_cache_size=result_cache_size)
    try:
        for text in QUERIES:
            service.run(text)
        descents = live.probe_snapshot().tree_descents
        assert descents > 0
        tid = live.add_tree("(ROOT (S (NP (DT the) (NN fish)) (VP (VBZ swims))))")
        before = service.stats().results
        assert service.run("NP(DT)(NN)").matches_per_tree.get(tid) == 1
        after = service.stats().results
        if result_cache_size:  # the segments' result hit, the delta's joined
            assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)
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


def test_a_segment_result_is_never_served_after_a_segment_delete(monkeypatch, tmp_path, live) -> None:
    """A segment delete moves its segment's tag: the result cached before it
    is joined again -- also when the delete lands while that join's lists
    are being read, which leaves the result it is computing stale at once."""
    service = QueryService(live)
    text = "NP(DT)(NN)"
    try:
        first, second, third = sorted(service.run(text).matches_per_tree)[:3]
        assert third in live.snapshot.sources[0].store  # all three in the seed segment
        live.delete_tree(first)
        assert first not in service.run(text).matches_per_tree

        live.delete_tree(second)  # the next run joins the segments again ...
        fetch, raced = Source.postings, []

        def delete_mid_fetch(source: Source, key: bytes):
            columns = fetch(source, key)
            if source.entry is not None and not raced:  # ... and a delete lands mid-fetch
                raced.append(key)
                live.delete_tree(third)
            return columns

        monkeypatch.setattr(Source, "postings", delete_mid_fetch)
        assert third in service.run(text).matches_per_tree  # as of its snapshot
        monkeypatch.undo()
        assert raced
        served = service.run(text)
        reference = plain_service_over(tmp_path, live, "segment-deletes")
        try:
            assert not {first, second, third} & set(served.matches_per_tree)
            assert served.matches_per_tree == reference.run(text).matches_per_tree
        finally:
            reference.close()
    finally:
        service.close()


def test_a_delete_in_a_segment_rereads_only_that_segment_once(live, small_corpus) -> None:
    """After a segment tree is deleted, each key's list of that segment is
    read again once -- one descent per key, into that segment alone -- and
    later writes to the delta do not read it again."""
    grow(live, list(small_corpus)[60:], segments=3)
    service = QueryService(live, result_cache_size=0)
    try:
        keys = {key for text in QUERIES for key in service.prepare(text).key_bytes}
        for text in QUERIES:
            service.run(text)
        victim = min(service.run("NP(DT)(NN)").matches_per_tree)
        seed, *others = live.segments
        assert victim in seed.store  # a tree of the seed segment
        descents = live.probe_snapshot().tree_descents
        untouched = [segment.index.probe_stats.tree_descents for segment in others]
        live.delete_tree(victim)
        for text in QUERIES + QUERIES:
            assert victim not in service.run(text).matches_per_tree
        reread = live.probe_snapshot().tree_descents
        assert reread == descents + len(keys)
        assert [segment.index.probe_stats.tree_descents for segment in others] == untouched
        live.add_tree("(ROOT (NP (DT a) (NN b)))")
        for text in QUERIES:
            service.run(text)
        assert live.probe_snapshot().tree_descents == reread
    finally:
        service.close()


def test_stale_segment_part_is_never_served(live) -> None:
    """The segment-level twin of the test below: a part put with an older
    tag -- a slow reader's, from before a segment delete -- is never served,
    nor is one of the segment a compaction replaced."""
    service = QueryService(live, result_cache_size=0)
    try:
        key = b"NP(DT)"
        seed = live.snapshot.parts[0]
        assert (seed.key, seed.tag) == (0, 0)  # segment 0, no tombstone
        stale = live.lookup(key)  # seed segment only: the delta is empty
        victim = stale.tids[0]
        live.delete_tree(victim)
        live.postings_cache.put((key, seed.key), (seed.tag, stale))  # the slow reader's put
        expected = [tid for tid in stale.tids if tid != victim]
        assert list(live.lookup(key).tids) == expected
        live.compact()
        assert [part.key for part in live.snapshot.parts] == [1, "delta"]  # segment 0 rewritten
        live.postings_cache.put((key, seed.key), (1, stale))  # a part of the replaced segment
        assert list(live.lookup(key).tids) == expected
    finally:
        service.close()


def test_a_compaction_keeps_the_lists_of_the_segments_it_keeps(live) -> None:
    """A compaction that only flushes the delta keeps segment 0, and every
    list cached of it: re-running the queries descends into the new segment
    alone, once per cover key."""
    service = QueryService(live, result_cache_size=0)
    try:
        keys = {key for text in QUERIES for key in service.prepare(text).key_bytes}
        live.add_tree("(ROOT (NP (DT a) (NN b)))")
        for text in QUERIES:
            service.run(text)
        size = service.stats().postings.size
        descents = live.probe_snapshot().tree_descents
        live.compact()
        assert service.stats().postings.size == size  # nothing is swept
        for text in QUERIES:
            service.run(text)
        assert live.probe_snapshot().tree_descents == descents + len(keys)  # the new segment's
    finally:
        service.close()


def test_a_compaction_leaves_the_kept_segments_results_served(tmp_path, coded_live, small_corpus) -> None:
    """After a compaction, re-running the queries descends into no segment
    it kept, and the kept segments' results are result-cache hits."""
    live = coded_live
    grow(live, list(small_corpus)[60:], segments=2)
    service = QueryService(live)
    try:
        for text in QUERIES:
            service.run(text)
        kept = live.segments
        descents = [segment.index.probe_stats.tree_descents for segment in kept]
        hits = service.stats().results.hits
        live.compact()  # flushes the delta; both segments are kept
        assert live.segments[:2] == kept
        reference = plain_service_over(tmp_path, live, "compacted")
        try:
            for text in QUERIES:
                assert service.run(text).matches_per_tree == reference.run(text).matches_per_tree
        finally:
            reference.close()
        assert [segment.index.probe_stats.tree_descents for segment in kept] == descents
        assert service.stats().results.hits == hits + len(kept) * len(QUERIES)
    finally:
        service.close()


def test_a_delete_in_the_newest_segment_leaves_the_base_results_served(
    tmp_path, coded_live, small_corpus
) -> None:
    """The delete that follows a compaction lands in the newest segment: the
    base segment's results and lists stay served, and the answer is a
    rebuild's."""
    live = coded_live
    grow(live, list(small_corpus)[60:], segments=2, per_segment=10)
    service = QueryService(live)
    try:
        for text in QUERIES:
            service.run(text)
        base, newest = live.segments
        descents = base.index.probe_stats.tree_descents
        hits = service.stats().results.hits
        live.delete_tree(newest.store.tids()[0])
        reference = plain_service_over(tmp_path, live, "newest-delete")
        try:
            for text in QUERIES:
                assert service.run(text).matches_per_tree == reference.run(text).matches_per_tree
        finally:
            reference.close()
        assert base.index.probe_stats.tree_descents == descents
        assert service.stats().results.hits == hits + len(QUERIES)  # the base's (every write moves the delta's tag)
    finally:
        service.close()


@pytest.mark.parametrize("segments", [1, 3, 5])
def test_a_run_whose_parts_all_miss_joins_once(monkeypatch, coded_live, small_corpus, segments) -> None:
    """However many segments a live index has, a query none of whose parts
    is cached is one join over their lists end to end; so is each distinct
    query of a batch."""
    live = coded_live
    grow(live, list(small_corpus)[60:], segments=segments)
    assert len(live.snapshot.parts) == segments + 1
    joins = []

    def counted(*args, **kwargs):
        joins.append(args[0])
        return join_postings(*args, **kwargs)

    monkeypatch.setattr(service_module, "join_postings", counted)
    for result_cache_size in (1024, 0):
        service = QueryService(live, result_cache_size=result_cache_size)
        try:
            for text in QUERIES:
                joins.clear()
                assert service.run(text).total_matches > 0
                assert len(joins) == 1, text
            joins.clear()
            service.clear_caches()
            service.run_many(QUERIES + QUERIES)
            assert len(joins) == len(QUERIES)
        finally:
            service.close()


def test_stale_result_is_never_served_after_racing_a_mutation(live) -> None:
    """A result tagged with a part's old tag is not served even if it lands
    in the cache after the mutation moved that tag (write-side race)."""
    service = QueryService(live)
    try:
        text = "NP(DT)(NN)"
        stale_parts = live.snapshot.parts
        stale = service.run(text)
        tid = live.add_tree("(ROOT (S (NP (DT the) (NN crab)) (VP (VBZ digs))))")
        # Simulate the race: a slow reader finishes now and stores the result
        # it computed against the pre-mutation state, in every part.
        for part in stale_parts:
            service._remember_result(service.prepare(text), part, stale)
        served = service.run(text)
        assert served is not stale
        assert served.matches_per_tree.get(tid) == 1
    finally:
        service.close()


def test_stale_posting_list_is_never_served_after_racing_a_mutation(live) -> None:
    """The posting twin: a delta list that lands in the cache after the
    mutation, tagged with the version it was read at, is not served."""
    service = QueryService(live, result_cache_size=0)
    try:
        key = b"NP(DT)"
        stale_delta = live.snapshot.parts[-1]
        stale = live.part_lookup(stale_delta, key)
        tid = live.add_tree("(ROOT (S (NP (DT the) (NN crab)) (VP (VBZ digs))))")
        live.postings_cache.put((key, stale_delta.key), (stale_delta.tag, stale))  # the slow reader's put
        served = live.lookup(key)
        assert served.tids[-1] == tid and tid not in stale.tids
        delta = live.snapshot.parts[-1]
        assert live.part_lookup(delta, key) is live.part_lookup(delta, key)  # re-cached under its tag
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
