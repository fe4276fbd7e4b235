"""Unit tests for the corpus containers and the on-disk data file."""

from __future__ import annotations

import pytest

from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus, TreeStore
from repro.trees.node import ParseTree
from repro.trees.penn import parse_penn


class TestCorpus:
    def test_add_assigns_sequential_tids(self) -> None:
        corpus = Corpus()
        corpus.add(ParseTree(parse_penn("(NP (NN a))")))
        corpus.add(ParseTree(parse_penn("(NP (NN b))")))
        assert corpus.tids() == [0, 1]

    def test_duplicate_tid_rejected(self) -> None:
        corpus = Corpus()
        corpus.add(ParseTree(parse_penn("(NP (NN a))"), tid=5))
        with pytest.raises(ValueError):
            corpus.add(ParseTree(parse_penn("(NP (NN b))"), tid=5))

    def test_get_and_contains(self) -> None:
        corpus = Corpus(CorpusGenerator(seed=0).generate_list(5))
        assert 3 in corpus
        assert corpus.get(3).tid == 3
        with pytest.raises(KeyError):
            corpus.get(99)

    def test_round_trip_through_penn_lines(self) -> None:
        corpus = Corpus(CorpusGenerator(seed=1).generate_list(8))
        rebuilt = Corpus.from_penn_lines(corpus.to_penn_lines())
        assert len(rebuilt) == len(corpus)
        for original, copy in zip(corpus, rebuilt):
            assert original.root.structurally_equal(copy.root)

    def test_save_and_load(self, tmp_path) -> None:
        corpus = Corpus(CorpusGenerator(seed=2).generate_list(6))
        path = tmp_path / "corpus.penn"
        corpus.save(path)
        loaded = Corpus.load(path)
        assert len(loaded) == 6
        assert loaded.get(0).root.structurally_equal(corpus.get(0).root)

    def test_total_nodes(self) -> None:
        corpus = Corpus(CorpusGenerator(seed=3).generate_list(4))
        assert corpus.total_nodes() == sum(tree.size() for tree in corpus)


class TestTreeStore:
    def test_append_and_get(self, tmp_path) -> None:
        store = TreeStore(tmp_path / "data.bin")
        tree = ParseTree(parse_penn("(NP (DT the) (NN dog))"), tid=3)
        store.append(tree)
        fetched = store.get(3)
        assert fetched.tid == 3
        assert fetched.root.structurally_equal(tree.root)

    def test_missing_tid_raises(self, tmp_path) -> None:
        store = TreeStore(tmp_path / "data.bin")
        with pytest.raises(KeyError):
            store.get(1)

    def test_build_and_reopen(self, tmp_path) -> None:
        path = tmp_path / "data.bin"
        corpus = CorpusGenerator(seed=4).generate_list(10)
        store = TreeStore.build(path, corpus)
        store.close()
        reopened = TreeStore(path)
        assert len(reopened) == 10
        assert set(reopened.tids()) == set(range(10))
        assert reopened.get(7).root.structurally_equal(corpus[7].root)
        reopened.close()

    def test_size_bytes_grows(self, tmp_path) -> None:
        store = TreeStore(tmp_path / "data.bin")
        empty = store.size_bytes()
        store.append(ParseTree(parse_penn("(NP (NN a))"), tid=0))
        assert store.size_bytes() > empty

    def test_context_manager(self, tmp_path) -> None:
        with TreeStore(tmp_path / "data.bin") as store:
            store.append(ParseTree(parse_penn("(NP (NN a))"), tid=0))
        # Closed cleanly; reopening still works.
        assert len(TreeStore(tmp_path / "data.bin")) == 1


class TestTreeStoreIteration:
    def test_iter_streams_in_file_order(self, tmp_path) -> None:
        corpus = CorpusGenerator(seed=6).generate_list(12)
        store = TreeStore.build(tmp_path / "data.bin", corpus)
        streamed = list(store)
        assert [tree.tid for tree in streamed] == store.tids()
        for streamed_tree, original in zip(streamed, corpus):
            assert streamed_tree.root.structurally_equal(original.root)

    def test_iter_matches_get(self, tmp_path) -> None:
        corpus = CorpusGenerator(seed=7).generate_list(8)
        store = TreeStore.build(tmp_path / "data.bin", corpus)
        via_get = [store.get(tid) for tid in store.tids()]
        via_iter = list(store)
        assert [t.tid for t in via_iter] == [t.tid for t in via_get]

    def test_iter_empty_store(self, tmp_path) -> None:
        assert list(TreeStore(tmp_path / "data.bin")) == []

    def test_iter_does_not_disturb_random_access(self, tmp_path) -> None:
        corpus = CorpusGenerator(seed=8).generate_list(6)
        store = TreeStore.build(tmp_path / "data.bin", corpus)
        iterator = iter(store)
        next(iterator)
        assert store.get(4).tid == 4  # get() between next() calls is fine
        assert next(iterator).tid == store.tids()[1]

    def test_iter_respects_arbitrary_tids(self, tmp_path) -> None:
        store = TreeStore(tmp_path / "data.bin")
        for tid in (42, 7, 1000):
            store.append(ParseTree(parse_penn("(NP (NN a))"), tid=tid))
        assert [tree.tid for tree in store] == [42, 7, 1000]

    def test_iter_agrees_with_get_after_reappend(self, tmp_path) -> None:
        store = TreeStore(tmp_path / "data.bin")
        store.append(ParseTree(parse_penn("(NP (NN old))"), tid=5))
        store.append(ParseTree(parse_penn("(NP (NN other))"), tid=6))
        store.append(ParseTree(parse_penn("(VP (VB new))"), tid=5))  # supersedes
        streamed = list(store)
        assert [tree.tid for tree in streamed] == store.tids()
        by_iter = {tree.tid: tree for tree in streamed}
        assert by_iter[5].root.structurally_equal(store.get(5).root)
        assert by_iter[5].root.label == "VP"
