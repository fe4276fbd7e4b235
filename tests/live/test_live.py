"""Integration tests for the live index: mutation equivalence.

The heart of this module is the acceptance property: after *any*
interleaving of ``add_tree`` / ``delete_tree`` / ``compact``, a live index
must return byte-identical, tid-ordered results to a **fresh full rebuild**
over the surviving corpus -- for every workload query (the full WH set plus
a generated FB set) and every coding scheme, and again after closing and
reopening (WAL replay).
"""

from __future__ import annotations

import json
import os
import random
import re
import zlib

import pytest

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.core.manifest import ManifestError, wal_file_path
from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus, TreeStore
from repro.exec.executor import QueryExecutor
from repro.live import LiveIndex
from repro.live.delta import DeltaTrees
from repro.trees.node import Node, ParseTree
from repro.trees.penn import parse_penn, to_penn
from repro.workloads.fb import generate_fb_queries
from repro.workloads.wh import generate_wh_queries

CODINGS = ("filter", "root-split", "subtree-interval")
MSS = 3


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("live")


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


def assert_identical_and_tid_ordered(live_result, fresh_result) -> None:
    """Byte-identical matches, with the live dict in ascending tid order."""
    assert json.dumps(live_result.matches_per_tree, sort_keys=True) == json.dumps(
        fresh_result.matches_per_tree, sort_keys=True
    )
    tids = list(live_result.matches_per_tree)
    assert tids == sorted(tids)
    assert live_result.matched_tids == fresh_result.matched_tids


def fresh_rebuild_executor(workdir, coding, trees, tag):
    """A QueryExecutor over a from-scratch index of *trees* (tids kept)."""
    path = str(workdir / f"fresh-{coding}-{tag}.si")
    index = SubtreeIndex.build(trees, mss=MSS, coding=coding, path=path)
    return QueryExecutor(index, store=Corpus(trees))


def run_interleaving(live: LiveIndex, pending, rng) -> None:
    """Apply a random interleaving of adds, deletes and compactions."""
    while pending:
        roll = rng.random()
        if roll < 0.55:
            live.add_tree(pending.pop(0).root)
        elif roll < 0.85:
            tids = live.store.tids()
            if tids:
                live.delete_tree(rng.choice(tids))
        else:
            live.compact()


class TestMutationEquivalence:
    """The acceptance property, per coding, over the full workload."""

    @pytest.mark.parametrize("coding", CODINGS)
    def test_interleaving_matches_fresh_rebuild(
        self, workdir, small_corpus, workload, coding
    ) -> None:
        rng = random.Random(sum(coding.encode()))  # deterministic per coding
        seed_trees = list(small_corpus)[:80]
        pending = list(small_corpus)[80:]
        live = LiveIndex.create(
            str(workdir / f"eq-{coding}"), mss=MSS, coding=coding, trees=seed_trees
        )
        try:
            run_interleaving(live, pending, rng)
            # Leave the index mid-lifecycle: some delta, some tombstones.
            extra = CorpusGenerator(seed=303).generate_list(10)
            for tree in extra[:5]:
                live.add_tree(tree.root)
            live.delete_tree(live.store.tids()[0])

            survivors = list(live.store)
            reference = fresh_rebuild_executor(workdir, coding, survivors, "mid")
            transparent = QueryExecutor(live, store=live.store)
            for query in workload:
                assert_identical_and_tid_ordered(
                    transparent.execute(query), reference.execute(query)
                )

            # Compact everything down and compare again on a sample.
            live.compact()
            assert not live.tombstones
            assert live.delta.tree_count == 0
            assert live.wal.op_count == 0
            compacted = QueryExecutor(live, store=live.store)
            for query in workload[::7]:
                assert_identical_and_tid_ordered(
                    compacted.execute(query), reference.execute(query)
                )
        finally:
            live.close()

    def test_reopen_replays_wal_identically(self, workdir, small_corpus, workload) -> None:
        seed_trees = list(small_corpus)[:60]
        live = LiveIndex.create(
            str(workdir / "reopen"), mss=MSS, coding="root-split", trees=seed_trees
        )
        extra = CorpusGenerator(seed=404).generate_list(12)
        for tree in extra:
            live.add_tree(tree.root)
        live.delete_tree(7)
        live.delete_tree(62)
        expected_tids = live.store.tids()
        live.close()

        reopened = LiveIndex.open(str(workdir / "reopen") + ".live.json")
        try:
            assert reopened.store.tids() == expected_tids
            assert reopened.tombstones == frozenset({7, 62})
            assert reopened.delta.tree_count == 12
            survivors = list(reopened.store)
            reference = fresh_rebuild_executor(workdir, "root-split", survivors, "reopen")
            transparent = QueryExecutor(reopened, store=reopened.store)
            for query in workload[::5]:
                assert_identical_and_tid_ordered(
                    transparent.execute(query), reference.execute(query)
                )
        finally:
            reopened.close()


class TestLifecycle:
    def test_create_open_roundtrip_and_dispatch(self, workdir, tiny_corpus) -> None:
        live = LiveIndex.create(
            str(workdir / "dispatch"), mss=2, coding="root-split", trees=list(tiny_corpus)
        )
        manifest_path = live.manifest_path
        live.close()
        via_open = SegmentSet.open(manifest_path)
        try:
            assert isinstance(via_open, LiveIndex)
            assert via_open.tree_count == len(tiny_corpus)
            assert via_open.epoch == 0
        finally:
            via_open.close()

    def test_empty_index_grows_from_nothing(self, workdir) -> None:
        live = LiveIndex.create(str(workdir / "empty"), mss=2, coding="root-split")
        try:
            assert live.tree_count == 0
            assert live.segment_count == 0
            assert len(live.lookup("NP(DT)")) == 0
            tid = live.add_tree("(ROOT (S (NP (DT the) (NN dog)) (VP (VBZ runs))))")
            assert tid == 0
            assert live.posting_list_length("NP(DT)") == 1
            live.compact()
            assert live.segment_count == 1
            assert live.posting_list_length("NP(DT)") == 1
        finally:
            live.close()

    def test_posting_list_length_with_and_without_tombstones(self, workdir, tiny_corpus) -> None:
        trees = list(tiny_corpus)
        live = LiveIndex.create(
            str(workdir / "lengths"), mss=2, coding="root-split", trees=trees[:10]
        )
        try:
            for tree in trees[10:15]:
                live.add_tree(tree.root)  # segment + delta, nothing deleted
            keys = [key for key, _ in live.items()]
            assert [live.posting_list_length(key) for key in keys] == [
                len(live.lookup(key)) for key in keys
            ]
            live.delete_tree(3)   # in the base segment
            live.delete_tree(12)  # in the delta
            assert [live.posting_list_length(key) for key in keys] == [
                len(live.lookup(key)) for key in keys
            ]
            assert any(
                live.posting_list_length(key)
                < sum(s.index.posting_list_length(key) for s in live.segments)
                + len(live.delta.lookup(key))
                for key in keys
            )
        finally:
            live.close()

    def test_tids_are_monotonic_and_never_reused(self, workdir, tiny_corpus) -> None:
        live = LiveIndex.create(
            str(workdir / "monotonic"), mss=2, coding="root-split",
            trees=list(tiny_corpus)[:5],
        )
        try:
            first = live.add_tree(tiny_corpus[5].root)
            assert first == 5
            live.delete_tree(first)
            second = live.add_tree(tiny_corpus[6].root)
            assert second == 6  # the deleted tid is not recycled
            live.compact()
            third = live.add_tree(tiny_corpus[7].root)
            assert third == 7
        finally:
            live.close()

    def test_delete_validation(self, workdir, tiny_corpus) -> None:
        live = LiveIndex.create(
            str(workdir / "delete"), mss=2, coding="root-split",
            trees=list(tiny_corpus)[:5],
        )
        try:
            with pytest.raises(KeyError):
                live.delete_tree(99)
            live.delete_tree(2)
            with pytest.raises(KeyError):  # double delete
                live.delete_tree(2)
            with pytest.raises(KeyError):
                live.store.get(2)
            assert 2 not in live.store
        finally:
            live.close()

    def test_compact_drops_fully_deleted_segments(self, workdir, tiny_corpus) -> None:
        live = LiveIndex.create(
            str(workdir / "drop"), mss=2, coding="root-split",
            trees=list(tiny_corpus)[:4],
        )
        try:
            for tree in list(tiny_corpus)[4:8]:
                live.add_tree(tree.root)
            live.compact()  # two segments now
            assert live.segment_count == 2
            for tid in live.segments[0].store.tids():
                live.delete_tree(tid)
            stats = live.compact()
            assert stats.segments_dropped == 1
            assert live.segment_count == 1
            assert live.tree_count == 4
        finally:
            live.close()

    def test_compact_noop(self, workdir, tiny_corpus) -> None:
        live = LiveIndex.create(
            str(workdir / "noop"), mss=2, coding="root-split", trees=list(tiny_corpus)[:3]
        )
        try:
            stats = live.compact()
            assert stats.noop
            assert live.epoch == 0
        finally:
            live.close()

    def test_items_match_fresh_rebuild(self, workdir, tiny_corpus) -> None:
        live = LiveIndex.create(
            str(workdir / "items"), mss=2, coding="root-split",
            trees=list(tiny_corpus)[:10],
        )
        try:
            for tree in list(tiny_corpus)[10:15]:
                live.add_tree(tree.root)
            live.delete_tree(3)
            live.delete_tree(12)
            survivors = list(live.store)
            fresh = SubtreeIndex.build(
                survivors, mss=2, coding="root-split", path=str(workdir / "items-fresh.si")
            )
            assert list(live.items()) == list(fresh.items())
            fresh.close()
        finally:
            live.close()

    def test_compaction_retires_replaced_segments_for_inflight_readers(
        self, workdir, tiny_corpus
    ) -> None:
        """A reader's snapshot stays usable across a compaction that
        replaces (and unlinks) the files of the segments in it."""
        live = LiveIndex.create(
            str(workdir / "retire"), mss=2, coding="root-split",
            trees=list(tiny_corpus)[:8],
        )
        try:
            snapshot = live.snapshot.sources
            before = snapshot[0].index.lookup(b"NP(DT)")
            live.delete_tree(0)  # forces the segment rewrite on compact
            live.compact()
            # The old handle still reads the old (pre-delete) epoch's files.
            assert snapshot[0].index.lookup(b"NP(DT)") == before
            assert snapshot[0].store.get(0).tid == 0
            # The live index itself serves the new epoch.
            assert 0 not in live.lookup(b"NP(DT)").tids
        finally:
            live.close()

    def test_a_replaced_segment_is_closed_once_no_snapshot_reaches_it(self, workdir, tiny_corpus) -> None:
        """300 compactions, each dropping the segment the one before wrote
        (its one tree deleted): the replaced files are closed as their last
        snapshot goes, so open descriptors stay at two a live segment plus a
        constant, the probe counters never go down, and a snapshot held
        across every compaction still answers from the files it holds."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("counts descriptors in /proc/self/fd")
        trees = list(tiny_corpus)
        live = LiveIndex.create(str(workdir / "closes"), mss=2, coding="root-split", trees=trees[:8], fsync=False)
        try:
            previous = live.add_tree(trees[8].root)
            live.compact()
            held = live.snapshot
            answer = [live.part_lookup(part, b"NP(DT)").tids for part in held.parts[:-1]]
            descents = live.probe_snapshot().tree_descents
            constant = len(os.listdir("/proc/self/fd")) - 2 * live.segment_count
            for round_ in range(300):
                added = live.add_tree(trees[9 + round_ % 16].root)
                live.delete_tree(previous)
                live.compact()
                assert live.segment_count == 2
                live.lookup(b"NP(DT)")  # a descent into the new segment
                now = live.probe_snapshot().tree_descents
                assert now >= descents
                descents, previous = now, added
                assert len(os.listdir("/proc/self/fd")) <= constant + 2 * live.segment_count + 4
            assert [live.part_lookup(part, b"NP(DT)").tids for part in held.parts[:-1]] == answer
            assert held.sources[1].store.get(8).tid == 8
        finally:
            live.close()

    def test_a_tid_is_routed_to_the_one_source_that_can_hold_it(
        self, workdir, small_corpus, monkeypatch
    ) -> None:
        """On a 40-segment index a delete and a tree fetch each ask one
        source whether it holds the tid: the one whose tid range covers it,
        or the delta past the last."""
        trees = list(small_corpus)
        live = LiveIndex.create(str(workdir / "routes"), mss=2, coding="root-split", trees=trees[:2], fsync=False)
        try:
            for tree in trees[2:80]:
                live.add_tree(tree.root)
                if tree.tid % 2:
                    live.compact()
            live.add_tree(trees[80].root)
            assert live.segment_count == 40
            asked = []
            for store in (TreeStore, DeltaTrees):
                def counted(self, tid, contains=store.__contains__):
                    asked.append(self)
                    return contains(self, tid)

                monkeypatch.setattr(store, "__contains__", counted)
            middle = live.segments[20]
            for tid, holder in ((middle.store.tids()[0], middle.store), (80, live.delta.trees)):
                asked.clear()
                assert live.store.get(tid).tid == tid
                assert asked == [holder]
                asked.clear()
                live.delete_tree(tid)
                assert asked == [holder]
                asked.clear()
                with pytest.raises(KeyError):
                    live.store.get(tid)
                assert asked == [holder]
        finally:
            live.close()

    def test_no_state_of_a_compaction_shows_a_tree_twice(self, workdir, tiny_corpus) -> None:
        """A reader may run between any two of a compaction's assignments.
        Whatever it finds there must be the index before or the index after,
        never the flushed trees in their new segment *and* in the old delta
        (out-of-order tids for the join kernel)."""

        class ReadsAfterEveryAssignment(LiveIndex):
            watching = False

            def __setattr__(self, name, value) -> None:
                super().__setattr__(name, value)
                if self.watching:
                    seen.append(list(self.lookup(b"NP(DT)").tids))

        seen = []
        trees = list(tiny_corpus)
        live = ReadsAfterEveryAssignment.create(
            str(workdir / "torn"), mss=2, coding="root-split", trees=trees[:6]
        )
        try:
            for tree in trees[6:12]:
                live.add_tree(tree.root)
            live.delete_tree(1)   # in the base segment: it is rewritten
            live.delete_tree(8)   # in the delta
            expected = list(live.lookup(b"NP(DT)").tids)
            assert expected == sorted(expected) and len(set(expected)) > 6
            live.watching = True
            live.compact()
            live.watching = False
            assert len(seen) >= 3 and all(tids == expected for tids in seen)
        finally:
            live.close()

    def test_a_posting_list_a_reader_holds_never_changes(self, workdir, tiny_corpus) -> None:
        """A posting list a reader fetched is a stable snapshot: a later add
        grows the delta's body in place, never the columns handed out."""
        live = LiveIndex.create(str(workdir / "cow"), mss=2, coding="root-split")
        try:
            live.add_tree(tiny_corpus[0].root)
            held = live.delta.lookup(b"NP(DT)")
            length = len(held)
            for tree in list(tiny_corpus)[1:6]:
                live.add_tree(tree.root)
            assert len(held) == length  # the held list never mutated
            assert len(live.delta.lookup(b"NP(DT)")) > length
        finally:
            live.close()

    def test_a_delete_does_not_copy_the_tombstones_before_it(self, workdir, tiny_corpus) -> None:
        """A source's tombstone set grows in place (a delete is O(1) however
        many went before); every delete still publishes a new version, and a
        snapshot from before the source's first tombstone never changes."""
        live = LiveIndex.create(
            str(workdir / "bury"), mss=2, coding="root-split", trees=list(tiny_corpus)[:8]
        )
        try:
            pristine = live.snapshot
            live.delete_tree(0)
            first = live.snapshot
            dead = first.sources[0].dead
            live.delete_tree(3)
            second = live.snapshot
            assert second.sources[0].dead is dead and dead == {0, 3}
            assert second.version != first.version != pristine.version
            assert pristine.sources[0].dead == frozenset()
            assert list(live.lookup(b"NP(DT)").tids) == [
                tid for tid in pristine.sources[0].index.lookup(b"NP(DT)").tids if tid not in (0, 3)
            ]
            assert live.tombstones == {0, 3} and live.tree_count == 6
            live.compact()  # the next generation of sources starts without tombstones
            assert all(not source.dead for source in live.snapshot.sources)
        finally:
            live.close()

    def test_open_errors_name_the_segment(self, workdir, tiny_corpus) -> None:
        live = LiveIndex.create(
            str(workdir / "err"), mss=2, coding="root-split", trees=list(tiny_corpus)[:4]
        )
        manifest_path = live.manifest_path
        segment_file = live.manifest.resolve(
            manifest_path, live.manifest.segments[0].index_path
        )
        live.close()
        import os

        os.remove(segment_file)
        with pytest.raises(ManifestError, match=r"segment 0 is missing"):
            LiveIndex.open(manifest_path)


class TestOneNodeTree:
    """A tree of one node has a Penn form (``(X)``), so the data file and the
    write-ahead log can hold it: build, add, replay, compact."""

    @pytest.mark.parametrize("coding", CODINGS)
    def test_build_add_reopen_compact(self, workdir, tiny_corpus, coding) -> None:
        lone = ParseTree(Node("X"), tid=3)
        seed = [*list(tiny_corpus)[:3], lone]
        with TreeStore.build(str(workdir / f"lone-{coding}.data"), seed) as store:
            assert store.get(3).root.structurally_equal(lone.root)
            assert [tree.tid for tree in store] == [0, 1, 2, 3]

        path = str(workdir / f"lone-{coding}")
        live = LiveIndex.create(path, MSS, coding, trees=seed)
        added = live.add_tree(Node("X"))
        assert live.add_tree("(Y)") == added + 1
        live.close()
        live = LiveIndex.open(live.manifest_path)  # WAL replay parses the one-node adds
        try:
            assert live.delta.tree_count == 2
            assert list(live.lookup(b"X").tids) == [3, added]
            live.delete_tree(3)
            stats = live.compact()
            assert (stats.flushed_trees, stats.segments_rewritten) == (2, 1)
            assert list(live.lookup(b"X").tids) == [added]
            assert list(live.lookup(b"Y").tids) == [added + 1]
            assert live.store.get(added).root.structurally_equal(lone.root)
            executor = QueryExecutor(live, store=live.store)
            from repro.query.parser import parse_query

            assert executor.execute(parse_query("X")).matched_tids == [added]
        finally:
            live.close()


class TestLabelsWithoutAPennForm:
    """A label that is empty or holds whitespace or a bracket has no Penn
    form that reads back as itself.  The write-ahead log and the data files
    store Penn text, so such a tree is refused before anything is written:
    acknowledged, it would be another tree after a restart (``the dog`` ->
    ``the``, ``dog``) or leave the index unopenable (``a)``)."""

    CASES = {
        "whitespace": (Node("S", [Node("NP", [Node("the dog")]), Node("VP")]), "the dog"),
        "bracket": (Node("S", [Node("NP", [Node("a)")]), Node("VP")]), "a)"),
        "empty": (Node("S", [Node("", [Node("NP")]), Node("VP")]), ""),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_add_refuses_it_and_changes_nothing(self, tmp_path, tiny_corpus, case) -> None:
        root, label = self.CASES[case]
        live = LiveIndex.create(str(tmp_path / "labels"), MSS, "root-split", trees=list(tiny_corpus)[:3])
        live.add_tree(tiny_corpus[3].root)
        ops, items = live.wal.op_count, list(live.items())
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            live.add_tree(root)
        assert live.wal.op_count == ops
        assert list(live.items()) == items
        live.close()
        reopened = LiveIndex.open(live.manifest_path)
        try:
            assert list(reopened.items()) == items and reopened.tree_count == 4
        finally:
            reopened.close()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_data_file_refuses_it(self, tmp_path, case) -> None:
        root, label = self.CASES[case]
        with TreeStore.build(str(tmp_path / "labels.data"), []) as store:
            with pytest.raises(ValueError, match=re.escape(repr(label))):
                store.append(ParseTree(root, tid=0))
            assert len(store) == 0


class TestEveryFormOfAnAdd:
    """An add reads Penn text once; a tree of nodes is rendered to it first.
    Text, a root node and a parse tree of one tree log the same line and put
    the same rows in the delta."""

    @pytest.mark.parametrize("coding", CODINGS)
    def test_text_a_node_and_a_parse_tree_add_the_same(self, tmp_path, tiny_corpus, coding) -> None:
        texts = [
            "  ( (S (NP (DT the) (NN dog))\n (VP (VBZ barks)) ) )",  # wrapped, spread over lines
            "X",
            "(A (B) (C d))",
            *(to_penn(tree.root) for tree in list(tiny_corpus)[:6]),
        ]
        forms = {
            "text": texts,
            "node": [parse_penn(text) for text in texts],
            "parse tree": [ParseTree(parse_penn(text), tid=99) for text in texts],
        }
        held = {}
        for form, trees in forms.items():
            live = LiveIndex.create(str(tmp_path / form.replace(" ", "-")), MSS, coding, fsync=False)
            try:
                assert [live.add_tree(tree) for tree in trees] == list(range(len(texts)))
                with open(live.wal.path, "rb") as handle:
                    log = handle.read()
                delta = live.delta
                held[form] = (log, dict(delta.trees.records), list(delta.encoded_lists()), list(delta.items()))
            finally:
                live.close()
        assert held["text"] == held["node"] == held["parse tree"]
        assert list(held["text"][1].values()) == [to_penn(parse_penn(text)).encode("utf-8") for text in texts]


class TestCompactionIsAMerge:
    """Compaction writes segments out of what is already indexed; the files
    must still be the ones a from-scratch build over the survivors writes."""

    @staticmethod
    def _file_bytes(path) -> bytes:
        with open(path, "rb") as handle:
            data = handle.read()
        # The metadata record is padded to a fixed length: the build time's
        # digits and the padding that follows are the only free bytes.
        return re.sub(rb'"build_seconds": [0-9.e-]+, "pad": " *"', b"", data)

    @pytest.mark.parametrize("coding", CODINGS)
    def test_compacted_segments_equal_a_fresh_build_of_the_survivors(
        self, workdir, small_corpus, coding
    ) -> None:
        trees = list(small_corpus)
        live = LiveIndex.create(str(workdir / f"merge-{coding}"), MSS, coding, trees=trees[:12])
        try:
            by_tid = {tree.tid: tree for tree in trees[:12]}

            def add(batch) -> list:
                tids = [live.add_tree(tree.root) for tree in batch]
                by_tid.update((tid, ParseTree(tree.root, tid=tid)) for tid, tree in zip(tids, batch))
                return tids

            add(trees[12:24])
            live.compact()
            emptied = add(trees[24:30])
            live.compact()
            assert live.segment_count == 3
            # Tombstones in two base segments, one segment emptied entirely,
            # and in the delta, whose survivors are flushed.
            in_delta = add(trees[30:44])
            for tid in [1, 2, 7, 13, 20, *emptied, *in_delta[::3]]:
                live.delete_tree(tid)
                del by_tid[tid]
            stats = live.compact()
            assert (stats.segments_rewritten, stats.segments_dropped) == (2, 1)
            assert stats.flushed_trees == len(in_delta) - len(in_delta[::3])
            assert live.segment_count == 3
            assert sorted(tid for segment in live.segments for tid in segment.store.tids()) == sorted(by_tid)

            for segment in live.segments:
                survivors = [by_tid[tid] for tid in segment.store.tids()]
                fresh_path = str(workdir / f"merge-{coding}-fresh{segment.entry.segment_id}")
                SubtreeIndex.build(survivors, mss=MSS, coding=coding, path=fresh_path + ".si").close()
                TreeStore.build(fresh_path + ".data", survivors).close()
                index_path = live.manifest.resolve(live.manifest_path, segment.entry.index_path)
                data_path = live.manifest.resolve(live.manifest_path, segment.entry.data_path)
                assert self._file_bytes(index_path) == self._file_bytes(fresh_path + ".si")
                assert self._file_bytes(data_path) == self._file_bytes(fresh_path + ".data")
        finally:
            live.close()

    @pytest.mark.parametrize("coding", CODINGS)
    def test_an_old_logs_bare_label_is_flushed_as_a_build_writes_it(self, tmp_path, coding) -> None:
        """A log written before one-node trees got brackets holds ``"tree":
        "X"``.  Its delta record is ``to_penn`` of the replayed tree, so the
        flushed data file is the one ``TreeStore.build`` writes: ``(X)``."""
        path = str(tmp_path / "old.live.json")
        LiveIndex.create(path, MSS, coding, fsync=False).close()
        texts = ["(S (NP (DT a) (NN dog)) (VP (VBZ barks)))", "X", "(NP (NN cat))"]
        with open(wal_file_path(path), "ab") as log:
            for tid, text in enumerate(texts):
                body = json.dumps({"op": "add", "tid": tid, "tree": text}, separators=(",", ":")).encode()
                log.write(b"%08x " % zlib.crc32(body) + body + b"\n")
        trees = [ParseTree(parse_penn(text), tid=tid) for tid, text in enumerate(texts)]
        live = LiveIndex.open(path, fsync=False)
        try:
            assert live.delta.tree_count == 3 and live.store.get(1).root.label == "X"
            assert live.compact().flushed_trees == 3
            (segment,) = live.segments
            data_path = live.manifest.resolve(live.manifest_path, segment.entry.data_path)
            index_path = live.manifest.resolve(live.manifest_path, segment.entry.index_path)
            TreeStore.build(str(tmp_path / "fresh.data"), trees).close()
            SubtreeIndex.build(trees, mss=MSS, coding=coding, path=str(tmp_path / "fresh.si")).close()
            assert self._file_bytes(data_path) == self._file_bytes(tmp_path / "fresh.data")
            assert b"(X)" in self._file_bytes(data_path)
            assert self._file_bytes(index_path) == self._file_bytes(tmp_path / "fresh.si")
        finally:
            live.close()

    def test_flushed_trees_counts_only_what_was_written(self, workdir, tiny_corpus) -> None:
        live = LiveIndex.create(str(workdir / "flushed"), mss=2, coding="root-split")
        try:
            tids = [live.add_tree(tree.root) for tree in list(tiny_corpus)[:8]]
            for tid in tids[:3]:
                live.delete_tree(tid)  # tombstoned in the delta: never reaches a segment
            stats = live.compact()
            assert stats.flushed_trees == 5 == live.segments[0].entry.tree_count
            assert stats.purged_tombstones == 3
        finally:
            live.close()
