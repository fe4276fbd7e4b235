"""Unit and integration tests for the SubtreeIndex."""

from __future__ import annotations

import pytest

from repro.core.index import IndexMetadata, SubtreeIndex
from repro.core.keys import decode_key
from repro.core.stats import IndexStats, count_postings, count_unique_keys
from repro.corpus.store import Corpus
from repro.trees.node import ParseTree, build_tree


@pytest.fixture()
def mini_corpus() -> Corpus:
    trees = [
        ParseTree(build_tree(("S", [("NP", ["DT", "NN"]), ("VP", ["VBZ"])])), tid=0),
        ParseTree(build_tree(("S", [("NP", ["NN"]), ("VP", ["VBZ", ("NP", ["DT", "NN"])])])), tid=1),
        ParseTree(build_tree(("NP", ["DT", "JJ", "NN"])), tid=2),
    ]
    return Corpus(trees)


class TestBuildAndOpen:
    @pytest.mark.parametrize("coding", ["filter", "root-split", "subtree-interval"])
    def test_build_and_reopen(self, tmp_path, mini_corpus: Corpus, coding: str) -> None:
        path = str(tmp_path / f"{coding}.si")
        index = SubtreeIndex.build(mini_corpus, mss=3, coding=coding, path=path)
        assert index.metadata.tree_count == 3
        assert index.key_count > 0
        index.close()

        reopened = SubtreeIndex.open(path)
        assert reopened.metadata.mss == 3
        assert reopened.metadata.coding == coding
        assert reopened.key_count == index.key_count
        reopened.close()

    def test_open_non_index_rejected(self, tmp_path) -> None:
        from repro.storage.bptree import BPlusTree

        path = str(tmp_path / "plain.bpt")
        tree = BPlusTree(path)
        tree.bulk_load([(b"key", b"value")])
        tree.close()
        with pytest.raises(ValueError):
            SubtreeIndex.open(path)

    def test_open_refuses_a_manifest_by_naming_the_opener(self, tmp_path, tiny_corpus) -> None:
        from repro.core.segments import SegmentSet
        from repro.shard import build_sharded

        manifest_path = build_sharded(tiny_corpus, 2, "root-split", str(tmp_path / "s.si"), shards=2, workers=1)
        before = open(manifest_path, "rb").read()
        with pytest.raises(ValueError, match="SegmentSet.open"):
            SubtreeIndex.open(manifest_path)
        assert open(manifest_path, "rb").read() == before  # the B+Tree never saw the JSON
        empty = tmp_path / "empty.si"
        empty.write_bytes(b"")
        with pytest.raises(ValueError, match="not an index file"):
            SubtreeIndex.open(str(empty))
        assert empty.read_bytes() == b""  # not initialised as an empty tree
        with SegmentSet.open(manifest_path) as sharded:
            assert sharded.flavor == "sharded" and sharded.metadata.tree_count == len(tiny_corpus)

    def test_metadata_round_trip(self) -> None:
        metadata = IndexMetadata(3, "root-split", 10, 100, 500, 1.5)
        assert IndexMetadata.from_json(metadata.to_json()) == metadata


class TestAReaderWritesNothing:
    """Opening, querying and closing an index changes no byte and no
    modification time of any of its files (a tree opened from a file used to
    rewrite its page 0 on close)."""

    @staticmethod
    def _write(flavor: str, directory, corpus: Corpus) -> str:
        from repro.corpus.store import TreeStore, data_file_path
        from repro.live import LiveIndex
        from repro.shard import build_sharded

        path = str(directory / "c.si")
        if flavor == "plain":
            SubtreeIndex.build(corpus, mss=3, coding="root-split", path=path).close()
            TreeStore.build(data_file_path(path), corpus).close()
            return path
        if flavor == "sharded":
            return build_sharded(corpus, 3, "root-split", path, shards=2, workers=1)
        live = LiveIndex.create(path + ".live.json", 3, "root-split", trees=list(corpus), fsync=False)
        live.close()
        return live.manifest_path

    @pytest.mark.parametrize("flavor", ["plain", "sharded", "live"])
    def test_open_query_close(self, tmp_path, tiny_corpus: Corpus, flavor: str) -> None:
        import os

        from repro.core.segments import SegmentSet
        from repro.exec.executor import QueryExecutor
        from repro.query.parser import parse_query
        from repro.service.service import QueryService
        from tests.core.fsynckit import file_states

        path = self._write(flavor, tmp_path, tiny_corpus)
        for entry in os.scandir(tmp_path):
            os.utime(entry.path, ns=(10**18, 10**18))  # an mtime no write could keep
        before = file_states(tmp_path)
        assert len(before) >= 2  # an index file and a data file at least
        query = parse_query("S(NP(DT))(VP)")
        with SegmentSet.open(path) as index:
            found = QueryExecutor(index).execute(query).matches_per_tree
            assert found and index.size_bytes() and index.lookup("NP(DT)")
        with QueryService.open(path) as service:
            assert service.run(query).matches_per_tree == found
        assert file_states(tmp_path) == before


class TestLookup:
    def test_single_node_key(self, tmp_path, mini_corpus: Corpus) -> None:
        index = SubtreeIndex.build(mini_corpus, mss=2, coding="root-split", path=str(tmp_path / "i.si"))
        postings = index.lookup(b"NP")
        assert set(postings.tids) == {0, 1, 2}
        assert len(postings.slots) == 1 and postings.orders is None  # the root's code, no order values

    def test_structured_key(self, tmp_path, mini_corpus: Corpus) -> None:
        index = SubtreeIndex.build(mini_corpus, mss=3, coding="filter", path=str(tmp_path / "i.si"))
        postings = index.lookup(b"NP(DT)(NN)")
        assert list(postings.tids) == [0, 1, 2]

    def test_lookup_accepts_node_and_string(self, tmp_path, mini_corpus: Corpus) -> None:
        index = SubtreeIndex.build(mini_corpus, mss=3, coding="filter", path=str(tmp_path / "i.si"))
        node_key = build_tree(("NP", ["NN", "DT"]))  # unordered: canonicalises to NP(DT)(NN)
        assert index.lookup(node_key) == index.lookup("NP(DT)(NN)") == index.lookup(b"NP(DT)(NN)")

    def test_missing_key_gives_empty_list(self, tmp_path, mini_corpus: Corpus) -> None:
        index = SubtreeIndex.build(mini_corpus, mss=2, coding="root-split", path=str(tmp_path / "i.si"))
        assert len(index.lookup(b"QP(CD)")) == 0

    def test_posting_lists_sorted_by_tid(self, tmp_path, mini_corpus: Corpus) -> None:
        index = SubtreeIndex.build(mini_corpus, mss=3, coding="subtree-interval", path=str(tmp_path / "i.si"))
        for _, postings in index.items():
            tids = list(postings.tids)
            assert tids == sorted(tids)

    def test_keys_larger_than_mss_not_indexed(self, tmp_path, mini_corpus: Corpus) -> None:
        index = SubtreeIndex.build(mini_corpus, mss=2, coding="filter", path=str(tmp_path / "i.si"))
        for key, _ in index.items():
            assert decode_key(key).size <= 2


class TestCounts:
    def test_posting_count_matches_metadata(self, tmp_path, mini_corpus: Corpus) -> None:
        index = SubtreeIndex.build(mini_corpus, mss=3, coding="root-split", path=str(tmp_path / "i.si"))
        actual = sum(len(postings) for _, postings in index.items())
        assert actual == index.posting_count

    @pytest.mark.parametrize("coding", ["filter", "root-split", "subtree-interval"])
    def test_posting_list_length_reads_the_stored_count(
        self, tmp_path, mini_corpus: Corpus, coding: str, monkeypatch
    ) -> None:
        index = SubtreeIndex.build(mini_corpus, mss=3, coding=coding, path=str(tmp_path / "i.si"))
        lengths = {key: len(postings) for key, postings in index.items()}
        # The count is the leading varint of the stored value: no list is decoded.
        monkeypatch.setattr(index.coding, "decode_postings", lambda data: pytest.fail("decoded"))
        for key, length in lengths.items():
            assert index.posting_list_length(key) == length
        assert index.posting_list_length("ZZTOP(QQ)") == 0

    def test_a_count_read_on_a_cold_index_counts_the_pages_it_parses(self, tmp_path, small_corpus) -> None:
        path = str(tmp_path / "i.si")
        SubtreeIndex.build(small_corpus, mss=3, coding="root-split", path=path).close()
        index = SubtreeIndex.open(path)
        assert index.probe_stats.node_decodes == 0
        assert index.posting_list_length("NP(DT)(NN)") > 0
        decodes = index.probe_stats.node_decodes
        assert decodes > 0
        # The lookup that follows finds the path resident; a count read is no get.
        index.lookup("NP(DT)(NN)")
        assert index.probe_stats.node_decodes == decodes
        assert (index.probe_stats.gets, index.probe_stats.tree_descents) == (1, 1)
        index.close()

    def test_key_count_matches_iteration(self, tmp_path, mini_corpus: Corpus) -> None:
        index = SubtreeIndex.build(mini_corpus, mss=3, coding="filter", path=str(tmp_path / "i.si"))
        assert sum(1 for _ in index.items()) == index.key_count

    def test_stats_of(self, tmp_path, mini_corpus: Corpus) -> None:
        index = SubtreeIndex.build(mini_corpus, mss=2, coding="filter", path=str(tmp_path / "i.si"))
        stats = IndexStats.of(index)
        assert stats.size_bytes == index.size_bytes()
        assert stats.key_count == index.key_count
        assert stats.coding == "filter"

    def test_count_unique_keys_monotone_in_mss(self, mini_corpus: Corpus) -> None:
        counts = count_unique_keys(mini_corpus, [1, 2, 3, 4])
        assert counts[1] <= counts[2] <= counts[3] <= counts[4]

    def test_count_postings_ordering(self, mini_corpus: Corpus) -> None:
        totals = count_postings(mini_corpus, mss=3, coding_names=["filter", "root-split", "subtree-interval"])
        # Filter-based has the fewest postings, subtree interval the most.
        assert totals["filter"] <= totals["root-split"] <= totals["subtree-interval"]


class TestCrossCodingInvariants:
    def test_same_keys_for_all_codings(self, tmp_path, mini_corpus: Corpus) -> None:
        paths = {name: str(tmp_path / f"{name}.si") for name in ["filter", "root-split", "subtree-interval"]}
        indexes = {
            name: SubtreeIndex.build(mini_corpus, mss=3, coding=name, path=path)
            for name, path in paths.items()
        }
        key_sets = {name: {key for key, _ in index.items()} for name, index in indexes.items()}
        assert key_sets["filter"] == key_sets["root-split"] == key_sets["subtree-interval"]

    def test_index_size_ordering(self, tmp_path, small_corpus) -> None:
        """Figure 8's qualitative claim: filter < root-split < subtree interval."""
        trees = list(small_corpus)[:60]
        sizes = {}
        for name in ["filter", "root-split", "subtree-interval"]:
            index = SubtreeIndex.build(trees, mss=3, coding=name, path=str(tmp_path / f"{name}.si"))
            sizes[name] = index.size_bytes()
            index.close()
        assert sizes["filter"] <= sizes["root-split"] <= sizes["subtree-interval"]


class TestStorageFootprint:
    """The file is its payload: what `page_census` says of a built index."""

    @pytest.fixture(scope="class")
    def trees(self):
        from repro.corpus.generator import CorpusGenerator

        return CorpusGenerator(seed=7).generate_list(200)

    @pytest.mark.parametrize("coding", ["filter", "root-split", "subtree-interval"])
    def test_the_file_is_little_more_than_its_keys_and_values(self, tmp_path, trees, coding: str) -> None:
        import os

        from repro.storage.pager import PAGE_SIZE

        path = str(tmp_path / f"{coding}.si")
        index = SubtreeIndex.build(trees, mss=3, coding=coding, path=path)
        stored = sum(len(key) + len(value) for key, value in index._tree.items())  # the metadata record too
        census = index.page_census()
        index.close()
        size = os.path.getsize(path)
        assert size == index.size_bytes() == PAGE_SIZE * sum(row["pages"] for row in census.values())
        for row in census.values():
            assert row["payload_bytes"] + row["slack_bytes"] == PAGE_SIZE * row["pages"]
        # The bar a slack regression fails (PR 20's layout: 1.13, 1.30 and
        # 1.52 times the stored bytes past the three pages; now 0.75-0.98).
        assert size <= 1.08 * stored + 3 * PAGE_SIZE
        # One open page at the end of the overflow stream, however many long lists.
        assert census.get("overflow", {"slack_bytes": 0})["slack_bytes"] < PAGE_SIZE
        assert census["meta"]["pages"] == 1

    def test_presence_and_length_of_a_long_list_do_not_read_it(self, tmp_path, trees) -> None:
        path = str(tmp_path / "si.si")
        built = SubtreeIndex.build(trees, mss=3, coding="subtree-interval", path=path)
        lengths = {key: (len(value), built.posting_list_length(key)) for key, value in built.raw_items()}
        built.close()
        longest = max(lengths, key=lambda key: lengths[key][0])
        assert lengths[longest][0] > 4096  # a list on two pages at least

        index = SubtreeIndex.open(path)
        pager = index._tree.pager
        absent = longest + b"(ZZTOP)"
        assert index.posting_list_length(absent) == 0
        reads = pager.read_count  # the path to the leaf is resident from here on
        assert index.posting_list_length(absent) == 0  # absent: the leaf says so
        assert pager.read_count == reads
        assert index.posting_list_length(longest) == lengths[longest][1]
        assert pager.read_count == reads + 1  # the page the list starts on
        assert len(index.lookup(longest)) == lengths[longest][1]
        assert pager.read_count > reads + 1  # the lookup walks the rest
        # Every key: present, and as long as stored, by at most two page reads
        # (the leaf, and the overflow page a long list starts on -- or two,
        # when the count straddles them).
        for key, (_, count) in lengths.items():
            before = pager.read_count
            assert index.posting_list_length(key) == count
            assert pager.read_count - before <= 3
        index.close()
