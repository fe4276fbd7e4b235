"""Integration tests for the sharded index and serving over it.

The heart of this module is the merge-correctness property: for every
workload query (the full WH set plus a generated FB set) and every coding
scheme, a 4-shard index -- under either partitioner -- must return
*byte-identical, tid-ordered* results to a single monolithic index over the
same corpus, through ``QueryExecutor`` and through ``QueryService``: both
read the shards' posting lists merged column-wise below ``lookup``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.index import SubtreeIndex
from repro.core.manifest import ManifestError
from repro.core.segments import SegmentSet
from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus, TreeStore, data_file_path
from repro.exec.executor import QueryExecutor
from repro.query.parser import parse_query
from repro.service.service import QueryService
from repro.shard import build_sharded
from repro.workloads.fb import generate_fb_queries
from repro.workloads.wh import generate_wh_queries
from tests.core.fsynckit import assert_committed_durably, needs_proc_fd, record_durability

CODINGS = ("filter", "root-split", "subtree-interval")
MSS = 3
SHARDS = 4


# ----------------------------------------------------------------------
# Shared fixtures: one single + one sharded index per coding
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("sharded")


@pytest.fixture(scope="module")
def indexes(workdir, small_corpus):
    """``coding -> (single index, single store, sharded index)`` triples."""
    built = {}
    for coding in CODINGS:
        single_path = str(workdir / f"single-{coding}.si")
        single = SubtreeIndex.build(small_corpus, mss=MSS, coding=coding, path=single_path)
        store = TreeStore.build(data_file_path(single_path), small_corpus)
        sharded = SegmentSet.open(build_sharded(
            small_corpus,
            mss=MSS,
            coding=coding,
            path=str(workdir / f"sharded-{coding}.si"),
            shards=SHARDS,
            workers=1,
        ))
        built[coding] = (single, store, sharded)
    yield built
    for single, store, sharded in built.values():
        single.close()
        store.close()
        sharded.close()


@pytest.fixture(scope="module")
def round_robin(workdir, small_corpus):
    """``coding -> sharded index`` under the positional partitioner."""
    built = {
        coding: SegmentSet.open(build_sharded(
            small_corpus, mss=MSS, coding=coding, path=str(workdir / f"rr-{coding}.si"),
            shards=SHARDS, workers=1, partitioner="round-robin",
        ))
        for coding in CODINGS
    }
    yield built
    for sharded in built.values():
        sharded.close()


@pytest.fixture(scope="module")
def workload(small_corpus):
    """Every workload query: the 48 WH queries plus a generated FB set."""
    queries = [item.query for item in generate_wh_queries()]
    held_out = CorpusGenerator(seed=101).generate_list(30)
    fb = generate_fb_queries(
        indexed_trees=list(small_corpus),
        held_out_trees=held_out,
        max_size=6,
        seed=7,
    )
    queries.extend(item.query for item in fb)
    assert len(queries) > 60
    return queries


def assert_identical_and_tid_ordered(sharded_result, single_result) -> None:
    """Byte-identical matches, with the sharded dict in ascending tid order."""
    assert json.dumps(sharded_result.matches_per_tree, sort_keys=True) == json.dumps(
        single_result.matches_per_tree, sort_keys=True
    )
    tids = list(sharded_result.matches_per_tree)
    assert tids == sorted(tids)
    assert sharded_result.matched_tids == single_result.matched_tids


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
class TestBuild:
    def test_manifest_and_shard_files_exist(self, indexes, workdir) -> None:
        sharded = indexes["root-split"][2]
        assert os.path.isfile(sharded.manifest_path)
        for shard in sharded.segments:
            assert os.path.isfile(os.path.join(str(workdir), shard.entry.index_path))
            assert shard.store is not None

    def test_every_tree_lands_in_exactly_one_shard(self, indexes, small_corpus) -> None:
        sharded = indexes["root-split"][2]
        per_shard = [set(shard.store.tids()) for shard in sharded.segments]
        union = set().union(*per_shard)
        assert union == set(small_corpus.tids())
        assert sum(len(tids) for tids in per_shard) == len(small_corpus)

    def test_counters_sum_over_shards(self, indexes) -> None:
        sharded = indexes["root-split"][2]
        manifest = sharded.manifest
        assert sharded.metadata.tree_count == sum(e.tree_count for e in manifest.segments)
        assert sharded.key_count == sum(e.key_count for e in manifest.segments)
        assert sharded.posting_count == sum(e.posting_count for e in manifest.segments)
        assert sharded.mss == MSS

    def test_round_robin_partitioner(self, tmp_path, tiny_corpus) -> None:
        sharded = SegmentSet.open(build_sharded(
            tiny_corpus,
            mss=2,
            coding="root-split",
            path=str(tmp_path / "rr.si"),
            shards=3,
            workers=1,
            partitioner="round-robin",
        ))
        sizes = [len(shard.store) for shard in sharded.segments]
        assert max(sizes) - min(sizes) <= 1  # perfectly balanced
        assert sharded.locate(0) is None  # positional policy: not derivable
        assert 0 in sharded.store  # membership probing still routes
        sharded.close()

    def test_process_pool_build_matches_inline(self, tmp_path, tiny_corpus) -> None:
        """A worker writes the records it was sent; its shards are the inline
        build's: data files byte for byte, index files key for key and list
        for list (their metadata holds the build time)."""
        inline = SegmentSet.open(build_sharded(
            tiny_corpus, mss=2, coding="root-split",
            path=str(tmp_path / "inline.si"), shards=2, workers=1,
        ))
        pooled = SegmentSet.open(build_sharded(
            tiny_corpus, mss=2, coding="root-split",
            path=str(tmp_path / "pooled.si"), shards=2, workers=2,
        ))
        with inline, pooled:
            for one, two in zip(inline.segments, pooled.segments):
                assert list(one.index.raw_items()) == list(two.index.raw_items())
                data = [
                    Path(index.manifest.resolve(index.manifest_path, shard.entry.data_path)).read_bytes()
                    for index, shard in ((inline, one), (pooled, two))
                ]
                assert data[0] == data[1] and len(data[0]) > 0
                assert (one.entry.tree_count, one.entry.min_tid, one.entry.max_tid) == (
                    two.entry.tree_count, two.entry.min_tid, two.entry.max_tid
                )
            query = parse_query("NP(DT)(NN)")
            a, b = QueryExecutor(inline), QueryExecutor(pooled)
            assert a.execute(query).matches_per_tree == b.execute(query).matches_per_tree

    def test_a_shard_that_gets_no_tree(self, tmp_path, tiny_corpus, capsys) -> None:
        """More shards than trees: a shard dealt nothing is still written,
        opened and listed, with no tids."""
        from repro.cli import main

        trees = list(tiny_corpus)[:3]
        manifest_path = build_sharded(trees, 2, "root-split", str(tmp_path / "few.si"), shards=5, workers=1)
        plain = SubtreeIndex.build(trees, mss=2, coding="root-split", path=str(tmp_path / "plain.si"))
        with SegmentSet.open(manifest_path) as sharded, plain:
            assert sharded.segment_count == 5 and sharded.metadata.tree_count == 3
            assert list(sharded.items()) == list(plain.items())
            reference = QueryExecutor(plain, store=Corpus(trees))
            for text in ("NP(DT)(NN)", "S(NP)(VP)", "VP"):
                query = parse_query(text)
                assert_identical_and_tid_ordered(QueryExecutor(sharded).execute(query), reference.execute(query))
        assert main(["stats", manifest_path, "--json"]) == 0
        sources = json.loads(capsys.readouterr().out)["sources"]
        assert len(sources) == 5
        empty = [source for source in sources if source["tree_count"] == 0]
        assert [(source["min_tid"], source["max_tid"], source["key_count"]) for source in empty] == [
            (None, None, 0)
        ] * 2


class TestCommit:
    """A sharded build commits like a compaction: files, one manifest swap,
    then whatever the replaced manifest listed and the new one does not."""

    def test_a_rebuild_with_fewer_shards_leaves_no_orphans(self, tmp_path, tiny_corpus) -> None:
        out = str(tmp_path / "re.si")
        plain = SubtreeIndex.build(tiny_corpus, mss=2, coding="root-split", path=str(tmp_path / "plain.si"))
        build_sharded(tiny_corpus, 2, "root-split", out, shards=4, workers=1)
        assert len(os.listdir(tmp_path)) == 1 + 1 + 2 * 4
        manifest_path = build_sharded(tiny_corpus, 2, "root-split", out, shards=2, workers=1)
        # A rebuild writes files named after its epoch; the commit removes the old ones.
        assert sorted(os.listdir(tmp_path)) == [
            "plain.si", "re.si.e1.shard00", "re.si.e1.shard00.data",
            "re.si.e1.shard01", "re.si.e1.shard01.data", "re.si.manifest.json",
        ]
        with SegmentSet.open(manifest_path) as sharded, plain:
            assert sharded.segment_count == 2 and sharded.metadata.tree_count == len(tiny_corpus)
            assert sharded.epoch == 1
            assert list(sharded.items()) == list(plain.items())
        build_sharded(tiny_corpus, 2, "root-split", out, shards=3, workers=1)
        assert sorted(os.listdir(tmp_path)) == ["plain.si"] + [
            f"re.si.e2.shard0{shard}{suffix}" for shard in range(3) for suffix in ("", ".data")
        ] + ["re.si.manifest.json"]

    def test_a_failed_rebuild_leaves_the_old_bundle_answering_as_it_did(self, tmp_path, monkeypatch) -> None:
        """A rebuild to the same path whose second shard fails writes no file
        the current manifest names: its answers stay byte-identical (they used
        to go wrong without warning, 278 matches for 280), and nothing of the
        failed build is left."""
        from repro.shard import builder
        from repro.trees.matching import match_corpus

        first = CorpusGenerator(seed=1).generate_list(200)
        manifest_path = build_sharded(first, 3, "root-split", str(tmp_path / "s.si"), shards=2, workers=1)
        query = parse_query("NP(DT)(NN)")
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        with SegmentSet.open(manifest_path) as sharded:
            expected = QueryExecutor(sharded).execute(query).matches_per_tree
        assert expected == match_corpus(query.root, first) and sum(expected.values()) == 280

        build_shard = builder._build_shard

        def failing(job):
            if job[1] == 1:
                raise OSError("no space left on device")
            return build_shard(job)

        monkeypatch.setattr(builder, "_build_shard", failing)
        second = CorpusGenerator(seed=2).generate_list(200)
        with pytest.raises(OSError, match="no space left"):
            build_sharded(second, 3, "root-split", manifest_path, shards=2, workers=1)
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
        with SegmentSet.open(manifest_path) as sharded:
            assert QueryExecutor(sharded).execute(query).matches_per_tree == expected

    def test_a_failed_manifest_swap_leaves_the_old_bundle(self, tmp_path, tiny_corpus, monkeypatch) -> None:
        from repro.core.manifest import Manifest

        manifest_path = build_sharded(tiny_corpus, 2, "root-split", str(tmp_path / "keep.si"), 3, workers=1)
        before = open(manifest_path, "rb").read()
        listed = sorted(os.listdir(tmp_path))
        with SegmentSet.open(manifest_path) as sharded:
            expected = list(sharded.items())

        def refuse(self, path) -> None:
            raise OSError("no space left on device")

        monkeypatch.setattr(Manifest, "save_atomic", refuse)
        with pytest.raises(OSError, match="no space left"):
            build_sharded(tiny_corpus, 2, "root-split", str(tmp_path / "keep.si"), 3, workers=1)
        monkeypatch.undo()
        assert open(manifest_path, "rb").read() == before
        assert sorted(os.listdir(tmp_path)) == listed  # the failed build took its files away
        with SegmentSet.open(manifest_path) as sharded:  # nothing it lists was cleaned up
            assert sharded.segment_count == 3
            assert list(sharded.items()) == expected

    @needs_proc_fd
    def test_every_shard_is_on_disk_before_the_manifest_swap(self, tmp_path, tiny_corpus, monkeypatch) -> None:
        events = record_durability(monkeypatch)
        out = str(tmp_path / "durable.si")
        build_sharded(tiny_corpus, 2, "root-split", out, shards=3, workers=1)
        manifest_path = build_sharded(tiny_corpus, 2, "root-split", out, shards=2, workers=1)
        assert_committed_durably(events, manifest_path)

    def test_the_manifest_records_what_the_builder_knows(self, tmp_path, tiny_corpus) -> None:
        manifest_path = build_sharded(
            tiny_corpus, 2, "root-split", str(tmp_path / "m.si"), 2, workers=1, partitioner="round-robin"
        )
        with SegmentSet.open(manifest_path) as sharded:
            manifest = sharded.manifest
            assert (manifest.partitioner, manifest.epoch, manifest.next_segment_id) == ("round-robin", 0, 2)
            assert manifest.next_tid == max(tiny_corpus.tids()) + 1 and manifest.build_seconds > 0
            for shard in sharded.segments:
                tids = shard.store.tids()
                assert (shard.entry.min_tid, shard.entry.max_tid) == (min(tids), max(tids))


# ----------------------------------------------------------------------
# The merged read surface: what one index file answers
# ----------------------------------------------------------------------
class TestMergedLookup:
    def test_lookup_equals_single_index(self, indexes) -> None:
        single, _, sharded = indexes["root-split"]
        for key, postings in list(single.items())[:50]:
            merged = sharded.lookup(key)
            assert merged == postings

    def test_lookup_is_tid_sorted_and_absent_key_is_empty(self, indexes) -> None:
        _, _, sharded = indexes["root-split"]
        tids = list(sharded.lookup("NP(DT)").tids)
        assert tids and tids == sorted(tids)
        assert len(sharded.lookup("ZZZTOP")) == 0

    @pytest.mark.parametrize("coding", CODINGS)
    def test_posting_list_length_sums_the_shards(self, indexes, coding) -> None:
        single, _, sharded = indexes[coding]
        for key, postings in list(single.items())[:80]:
            assert sharded.posting_list_length(key) == len(postings) == len(sharded.lookup(key))
        assert sharded.posting_list_length("ZZZTOP") == 0

    def test_items_match_single_index(self, indexes) -> None:
        single, _, sharded = indexes["root-split"]
        single_items = [(key, list(postings.tids)) for key, postings in single.items()]
        sharded_items = [(key, list(postings.tids)) for key, postings in sharded.items()]
        assert sharded_items == single_items

    def test_postings_cache_read_through(self, indexes) -> None:
        _, _, sharded = indexes["subtree-interval"]
        (part,) = sharded.snapshot.parts
        sharded.reset_probe_stats()
        service = QueryService(sharded, result_cache_size=0)
        try:
            first = service._postings(part, b"NP(DT)")
            second = service._postings(part, b"NP(DT)")
            assert first is second  # served from the service's posting cache
            probes = service.stats().probes
            assert probes.gets == 2
            assert probes.cache_hits == 1
            assert sharded.probe_stats.gets == 1  # one list merged from the shards
            assert probes.tree_descents == SHARDS  # one descent into each
        finally:
            service.close()

    def test_a_frozen_set_caches_one_entry_per_key(self, indexes) -> None:
        """A frozen set is one part: one entry per key, not the one per
        segment and the delta's of a live index."""
        _, _, sharded = indexes["root-split"]
        (part,) = sharded.snapshot.parts
        service = QueryService(sharded, result_cache_size=0)
        try:
            for text in ("NP(DT)", "VP(VBZ)", "NP(DT)"):
                service.run(text)
            assert sorted(service._postings_cache.keys()) == [(b"NP(DT)", part.key), (b"VP(VBZ)", part.key)]
        finally:
            service.close()

    def test_open_dispatches_on_the_manifest(self, indexes) -> None:
        sharded = indexes["root-split"][2]
        reopened = SegmentSet.open(sharded.manifest_path)
        try:
            assert type(reopened) is SegmentSet and reopened.flavor == "sharded"
            assert reopened.segment_count == SHARDS
        finally:
            reopened.close()


# ----------------------------------------------------------------------
# Merge correctness over the full workload (the acceptance property)
# ----------------------------------------------------------------------
class TestMergeCorrectness:
    @pytest.mark.parametrize("partitioner", ("hash", "round-robin"))
    @pytest.mark.parametrize("coding", CODINGS)
    def test_merged_lookup_path_matches_single_index(
        self, indexes, round_robin, workload, coding, partitioner
    ) -> None:
        single, store, sharded = indexes[coding]
        if partitioner == "round-robin":
            sharded = round_robin[coding]
        reference = QueryExecutor(single, store=store)
        transparent = QueryExecutor(sharded)  # trees routed by tid: index.store
        for query in workload:
            assert_identical_and_tid_ordered(
                transparent.execute(query), reference.execute(query)
            )


# ----------------------------------------------------------------------
# The sharded service
# ----------------------------------------------------------------------
class TestShardedService:
    def test_run_matches_unsharded_service(self, indexes, workload) -> None:
        single, store, sharded = indexes["root-split"]
        plain = QueryService(SegmentSet.of(single, store))
        service = QueryService(sharded)
        try:
            for query in workload[:20]:
                assert_identical_and_tid_ordered(service.run(query), plain.run(query))
        finally:
            # Neither service owns its index (constructed, not opened), so
            # close() only drops its caches.
            service.close()
            plain.close()

    def test_result_cache_and_per_shard_probe_counters(self, indexes) -> None:
        sharded = indexes["root-split"][2]
        sharded.reset_probe_stats()
        service = QueryService(sharded)
        try:
            first = service.run("NP(DT)(NN)")
            again = service.run("NP ( DT ) ( NN )")  # normalises to the same plan
            assert again is first  # served whole from the result cache
            stats = service.stats()
            assert len(stats.extras["sources"]) == SHARDS
            # One cover key, one merged lookup, one descent in every shard;
            # the repeat hit the result cache, so no extra probes anywhere.
            assert stats.probes.gets == 1
            assert stats.probes.tree_descents == SHARDS
            assert [shard["tree_descents"] for shard in stats.extras["sources"]] == [1] * SHARDS
            assert stats.results.hits == 1
        finally:
            service.close()

    def test_run_many_fetches_each_key_once(self, indexes) -> None:
        sharded = indexes["subtree-interval"][2]
        sharded.reset_probe_stats()
        service = QueryService(sharded, result_cache_size=0)
        try:
            queries = ["NP(DT)(NN)", "NP(DT)(NN)", "NP(DT)"]
            results = service.run_many(queries)
            assert results[0].matches_per_tree == results[1].matches_per_tree
            distinct_keys = {
                key
                for text in queries
                for key in service.prepare(text).key_bytes
            }
            stats = service.stats()
            assert stats.probes.gets == len(distinct_keys)
            assert stats.probes.tree_descents == len(distinct_keys) * SHARDS
            assert stats.batch_keys_deduped > 0
        finally:
            service.close()

    def test_concurrent_filter_coding_run_is_safe(self, indexes, workload) -> None:
        """Threaded run() with filter coding: the filtering phase hits each
        shard's on-disk TreeStore from many threads at once, which must not
        interleave reads on the shared file handle (regression test)."""
        from concurrent.futures import ThreadPoolExecutor

        single, store, sharded = indexes["filter"]
        reference = QueryExecutor(single, store=store)
        queries = workload[:12]
        expected = [reference.execute(query).matches_per_tree for query in queries]
        service = QueryService(sharded, result_cache_size=0)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(3):  # repeat so threads genuinely overlap
                    observed = list(pool.map(service.run, queries))
                    assert [r.matches_per_tree for r in observed] == expected
        finally:
            service.close()

    def test_query_service_open_serves_a_manifest(self, indexes) -> None:
        manifest_path = indexes["root-split"][2].manifest_path
        service = QueryService.open(manifest_path)
        try:
            assert type(service.index) is SegmentSet and service.index.flavor == "sharded"
            result = service.run("NP(DT)(NN)")
            assert result.total_matches > 0
        finally:
            service.close()


# ----------------------------------------------------------------------
# Failure modes: every error names the offending segment (= shard)
# ----------------------------------------------------------------------
class TestShardErrors:
    @pytest.fixture()
    def built(self, tmp_path, tiny_corpus):
        manifest_path = SegmentSet.open(build_sharded(
            tiny_corpus, mss=2, coding="root-split",
            path=str(tmp_path / "err.si"), shards=3, workers=1,
        )).manifest_path
        return tmp_path, manifest_path

    def test_missing_shard_file(self, built) -> None:
        tmp_path, manifest_path = built
        os.remove(tmp_path / "err.si.shard01")
        with pytest.raises(ManifestError, match=r"segment 1 is missing its index file"):
            SegmentSet.open(manifest_path)

    def test_missing_data_file(self, built) -> None:
        tmp_path, manifest_path = built
        os.remove(tmp_path / "err.si.shard01.data")
        with pytest.raises(ManifestError, match=r"segment 1 is missing its data file"):
            SegmentSet.open(manifest_path)

    def test_corrupted_shard_file(self, built) -> None:
        tmp_path, manifest_path = built
        (tmp_path / "err.si.shard02").write_bytes(b"this is not a B+Tree")
        with pytest.raises(ManifestError, match=r"segment 2 is unreadable"):
            SegmentSet.open(manifest_path)

    def test_shard_with_mismatched_parameters(self, built, tiny_corpus) -> None:
        tmp_path, manifest_path = built
        shard_path = str(tmp_path / "err.si.shard00")
        os.remove(shard_path)
        rebuilt = SubtreeIndex.build(tiny_corpus, mss=1, coding="root-split", path=shard_path)
        rebuilt.close()
        with pytest.raises(ManifestError, match=r"segment 0 .* mss=1"):
            SegmentSet.open(manifest_path)
