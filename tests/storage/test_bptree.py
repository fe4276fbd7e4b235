"""Unit and property tests for the disk B+Tree."""

from __future__ import annotations

import os
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.bptree import BPlusTree, BPlusTreeError
from tests.core.fsynckit import file_states


def _make(tmp_path, name: str = "tree.bpt", page_size: int = 4096) -> BPlusTree:
    return BPlusTree(str(tmp_path / name), page_size=page_size)


def _loaded(tmp_path, items, name: str = "tree.bpt", page_size: int = 4096) -> BPlusTree:
    """A new tree at *name* bulk-loaded with *items* (sorted here)."""
    tree = _make(tmp_path, name, page_size)
    tree.bulk_load(sorted(items))
    return tree


class TestBasicOperations:
    def test_empty_tree(self, tmp_path) -> None:
        tree = _make(tmp_path)
        assert len(tree) == 0
        assert tree.get(b"missing") is None
        assert list(tree.items()) == []

    def test_load_and_get(self, tmp_path) -> None:
        tree = _loaded(tmp_path, [(b"alpha", b"1"), (b"beta", b"2")])
        assert tree.get(b"alpha") == b"1"
        assert tree.get(b"beta") == b"2"
        assert len(tree) == 2

    def test_non_bytes_key_rejected(self, tmp_path) -> None:
        tree = _make(tmp_path)
        with pytest.raises(TypeError):
            tree.bulk_load([("string", b"x")])  # type: ignore[list-item]


class TestLevelsAndOrdering:
    def test_a_multi_level_tree_answers_every_key(self, tmp_path) -> None:
        items = {f"key{index:05d}".encode(): f"value{index}".encode() for index in range(500)}
        tree = _loaded(tmp_path, items.items(), page_size=512)
        assert tree.height > 1
        for key, value in items.items():
            assert tree.get(key) == value

    def test_items_are_sorted(self, tmp_path) -> None:
        keys = [f"k{index:04d}".encode() for index in range(300)]
        random.Random(0).shuffle(keys)
        tree = _loaded(tmp_path, [(key, key) for key in keys], page_size=512)
        assert [key for key, _ in tree.items()] == sorted(keys)

    def test_random_keys(self, tmp_path) -> None:
        rng = random.Random(42)
        pairs = {f"{rng.random():.10f}".encode(): str(index).encode() for index in range(400)}
        tree = _loaded(tmp_path, pairs.items(), page_size=512)
        for key, value in pairs.items():
            assert tree.get(key) == value


class TestLargeValues:
    def test_overflow_values_round_trip(self, tmp_path) -> None:
        big = bytes(range(256)) * 200  # ~51 KB, far above a page
        tree = _loaded(tmp_path, [(b"big", big), (b"small", b"tiny")])
        assert tree.get(b"big") == big
        assert tree.get(b"small") == b"tiny"

    def test_multiple_overflow_values(self, tmp_path) -> None:
        values = {f"key{i}".encode(): bytes([i]) * (5000 + i * 1000) for i in range(8)}
        tree = _loaded(tmp_path, values.items())
        for key, value in values.items():
            assert tree.get(key) == value

    def test_overflow_value_visible_in_items(self, tmp_path) -> None:
        big = b"z" * 20000
        tree = _loaded(tmp_path, [(b"big", big)])
        assert dict(tree.items())[b"big"] == big


class TestPersistence:
    def test_reopen_preserves_content(self, tmp_path) -> None:
        path = str(tmp_path / "persist.bpt")
        tree = BPlusTree(path)
        tree.bulk_load([(f"key{index:03d}".encode(), f"value{index}".encode()) for index in range(100)])
        tree.close()
        reopened = BPlusTree(path)
        assert len(reopened) == 100
        assert reopened.get(b"key050") == b"value50"
        reopened.close()

    def test_bad_magic_rejected(self, tmp_path) -> None:
        path = tmp_path / "bogus.bpt"
        path.write_bytes(b"NOTATREE" + b"\x00" * 4088)
        with pytest.raises(BPlusTreeError):
            BPlusTree(str(path))
        path.write_bytes(b"")
        with pytest.raises(BPlusTreeError, match="not a B\\+Tree file"):
            BPlusTree(str(path))
        assert path.read_bytes() == b""  # not initialised as an empty tree

    def test_a_reopened_tree_is_read_and_never_written(self, tmp_path) -> None:
        path = tmp_path / "tree.bpt"
        _loaded(tmp_path, [(b"k%04d" % index, bytes(index % 200)) for index in range(600)], page_size=512).close()
        os.utime(path, ns=(10**18, 10**18))  # an mtime no write could keep
        before = file_states(tmp_path)
        tree = BPlusTree(str(path), page_size=512)
        assert tree.get(b"k0100") == bytes(100) and tree.get(b"k0599") == bytes(199)
        assert len(list(tree.items())) == 600 and tree.get(b"k0199") == bytes(199)
        tree.page_census()
        with pytest.raises(BPlusTreeError, match="written once"):
            tree.bulk_load([(b"a", b"1")])
        with pytest.raises(BPlusTreeError, match="read-only"):
            tree.overwrite(b"k0001", b"\x01")
        assert tree.get(b"k0001") == bytes(1)
        tree.close()
        assert file_states(tmp_path) == before

    def test_a_reopened_empty_tree_refuses_a_load(self, tmp_path) -> None:
        _make(tmp_path).close()
        tree = _make(tmp_path)
        with pytest.raises(BPlusTreeError, match="written once"):
            tree.bulk_load([(b"a", b"1")])
        assert len(tree) == 0 and list(tree.items()) == []
        tree.close()


class TestOverwrite:
    """The one write after a load: an inline value for one of its length."""

    def _tree(self, tmp_path) -> BPlusTree:
        items = [(b"k%04d" % index, b"v%03d" % index) for index in range(400)] + [(b"long", b"l" * 2000)]
        return _loaded(tmp_path, items, page_size=512)

    def test_a_same_length_value_is_replaced_in_its_leaf(self, tmp_path) -> None:
        tree = self._tree(tmp_path)
        size, height = tree.size_bytes(), tree.height
        pages = _pages(tree)
        tree.overwrite(b"k0123", b"XYZW")
        assert tree.get(b"k0123") == b"XYZW" and tree.get(b"k0122") == b"v122"
        changed = [page for page, (old, new) in enumerate(zip(pages, _pages(tree))) if old != new]
        assert len(changed) == 1 and (tree.size_bytes(), tree.height) == (size, height)
        tree.close()
        reopened = _make(tmp_path, page_size=512)
        assert reopened.get(b"k0123") == b"XYZW" and len(reopened) == 401
        reopened.close()

    def test_a_missing_key_is_refused(self, tmp_path) -> None:
        tree = self._tree(tmp_path)
        with pytest.raises(BPlusTreeError, match="no value under"):
            tree.overwrite(b"k0123x", b"XYZW")
        tree.close()

    def test_a_different_length_is_refused(self, tmp_path) -> None:
        tree = self._tree(tmp_path)
        before = _pages(tree)
        for value in (b"XYZ", b"XYZWV"):
            with pytest.raises(BPlusTreeError, match="of the same length"):
                tree.overwrite(b"k0123", value)
        assert tree.get(b"k0123") == b"v123" and _pages(tree) == before
        tree.close()

    def test_an_overflow_value_is_refused(self, tmp_path) -> None:
        tree = self._tree(tmp_path)
        with pytest.raises(BPlusTreeError, match="an overflow value"):
            tree.overwrite(b"long", b"m" * 2000)
        assert tree.get(b"long") == b"l" * 2000
        tree.close()


class TestBulkLoad:
    def test_bulk_load_round_trip(self, tmp_path) -> None:
        items = [(f"key{index:05d}".encode(), f"value{index}".encode()) for index in range(1000)]
        tree = _make(tmp_path, page_size=512)
        tree.bulk_load(items)
        assert len(tree) == 1000
        for key, value in items:
            assert tree.get(key) == value
        assert [key for key, _ in tree.items()] == [key for key, _ in items]

    def test_a_tree_is_loaded_once(self, tmp_path) -> None:
        tree = _make(tmp_path)
        tree.bulk_load([(b"a", b"1")])
        with pytest.raises(BPlusTreeError, match="written once"):
            tree.bulk_load([(b"b", b"2")])
        assert list(tree.items()) == [(b"a", b"1")]

    def test_bulk_load_requires_sorted_unique_keys(self, tmp_path) -> None:
        tree = _make(tmp_path)
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([(b"b", b"1"), (b"a", b"2")])
        tree2 = _make(tmp_path, "tree2.bpt")
        with pytest.raises(BPlusTreeError):
            tree2.bulk_load([(b"a", b"1"), (b"a", b"2")])
        tree.bulk_load([(b"a", b"2"), (b"b", b"1")])  # a refused load wrote nothing
        assert list(tree.items()) == [(b"a", b"2"), (b"b", b"1")]

    def test_bulk_load_with_large_values(self, tmp_path) -> None:
        items = [(f"k{index:02d}".encode(), bytes([index]) * 9000) for index in range(20)]
        tree = _make(tmp_path)
        tree.bulk_load(items)
        for key, value in items:
            assert tree.get(key) == value


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    entries=st.dictionaries(
        st.binary(min_size=1, max_size=40), st.binary(max_size=200), max_size=200
    )
)
def test_bptree_behaves_like_a_dict(tmp_path_factory, entries: dict) -> None:
    """Property: a tree loaded from arbitrary pairs matches an in-memory dict,
    and so does the tree reopened from its file."""
    directory = tmp_path_factory.mktemp("bpt")
    tree = BPlusTree(str(directory / "prop.bpt"), page_size=512)
    tree.bulk_load(sorted(entries.items()))
    tree.close()
    tree = BPlusTree(str(directory / "prop.bpt"), page_size=512)
    assert len(tree) == len(entries)
    for key, value in entries.items():
        assert tree.get(key) == value
    assert tree.get(b"\xff" * 41) is None
    assert [key for key, _ in tree.items()] == sorted(entries)
    tree.close()


class TestProbeStats:
    """The lookup counters of a bare tree (it has no cache: every get descends)."""

    def _loaded(self, tmp_path) -> BPlusTree:
        tree = _make(tmp_path)
        tree.bulk_load([(f"k{index:03d}".encode(), f"v{index}".encode()) for index in range(50)])
        return tree

    def test_every_get_is_a_descent(self, tmp_path) -> None:
        tree = self._loaded(tmp_path)
        tree.get(b"k001")
        tree.get(b"k001")
        stats = tree.probe_stats
        assert stats.gets == 2
        assert stats.cache_hits == 0
        assert stats.tree_descents == 2
        assert stats.gets - stats.cache_hits == 2  # every miss descended
        snapshot = stats.snapshot()
        stats.reset()
        assert (stats.gets, snapshot.gets) == (0, 2)


class TestResidentNodes:
    """Decoded node images kept resident in place of raw pages."""

    def test_lookups_beyond_the_budget_reread_only_the_leaf(self, tmp_path) -> None:
        tree = _make(tmp_path)
        keys = [b"key%06d" % index for index in range(24000)]
        tree.bulk_load([(key, bytes(200)) for key in keys])
        budget = tree.pager._cache_limit
        assert tree.height >= 3
        assert tree.pager.page_count > 4 * budget
        tree.close()

        tree = _make(tmp_path)
        file_reads = []
        read_page = tree.pager.read_raw
        tree.pager.read_raw = lambda page_id: file_reads.append(page_id) or read_page(page_id)
        rng = random.Random(5)
        for _ in range(3 * budget):
            tree.get(rng.choice(keys))
        del file_reads[:]
        for _ in range(1000):
            before = tree.pager.read_count
            assert tree.get(rng.choice(keys)) == bytes(200)
            assert tree.pager.read_count - before <= 1
        assert file_reads  # the working set really exceeds the budget
        assert tree._root not in file_reads
        tree.close()

    def test_node_decodes_tell_cold_from_warm(self, tmp_path) -> None:
        from repro import obs
        from repro.obs.tracer import Tracer

        tree = _make(tmp_path, page_size=512)
        tree.bulk_load([(b"key%04d" % index, b"v%d" % index) for index in range(400)])
        tree.close()
        tree = _make(tmp_path, page_size=512)
        tracer = obs.enable(Tracer())
        try:
            assert tree.get(b"key0123") == b"v123"
            assert tree.get(b"key0123") == b"v123"
        finally:
            obs.disable()
        cold, warm = (record["spans"] for record in tracer.last(2))
        assert cold["name"] == warm["name"] == "bptree.descent"
        assert cold["attrs"]["page_reads"] == cold["attrs"]["nodes_decoded"] == tree.height
        assert len(cold["children"]) == tree.height  # one page_read span per level
        assert warm["attrs"]["page_reads"] == warm["attrs"]["nodes_decoded"] == 0
        assert warm["children"] == []
        assert tree.probe_stats.node_decodes == tree.height
        assert tree.probe_stats.snapshot().node_decodes == tree.height
        tree.close()

    def test_a_second_handle_on_the_same_file_answers_identically(self, tmp_path) -> None:
        tree = _make(tmp_path, page_size=512)
        items = [
            (b"key%04d" % index, bytes([index % 251]) * (300 if index % 7 == 0 else 9))
            for index in range(600)
        ]
        tree.bulk_load(items)
        other = _make(tmp_path, page_size=512)
        for key, _ in items + [(b"absent", b"")]:
            assert other.get(key) == tree.get(key)
        assert list(other.items()) == list(tree.items())
        assert (other.height, len(other)) == (tree.height, len(tree))
        other.close()
        tree.close()

    def test_a_malformed_node_page_is_a_named_error(self, tmp_path) -> None:
        tree = _make(tmp_path, page_size=512)
        tree.bulk_load([(b"key%04d" % index, b"v") for index in range(400)])
        root = tree._root
        tree.close()
        with open(tmp_path / "tree.bpt", "r+b") as handle:
            handle.seek(root * 512 + 1)
            handle.write(b"\x7f" * 8)  # 127 keys of 127 bytes: runs off the page
        tree = _make(tmp_path, page_size=512)
        with pytest.raises(BPlusTreeError, match=f"page {root} is malformed"):
            tree.get(b"key0001")
        tree.close()


_TINY_PAGE = 128  # overflow threshold 32 bytes, ~12 children per internal node
_SEEDED = {
    b"k%04d" % index: bytes([index % 256]) * (50 if index % 8 == 0 else 10)
    for index in range(0, 640, 4)
}
_op_keys = st.integers(0, 640).map(lambda index: b"k%04d" % index)
_op_values = st.one_of(
    st.binary(max_size=30),                  # inline
    st.integers(33, 400).map(bytes),         # past the threshold: an overflow chain
)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _op_keys),
        st.tuples(st.just("items")),
    ),
    max_size=60,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(budget=st.integers(2, 4), extra=st.dictionaries(_op_keys, _op_values, max_size=60), operations=_operations)
def test_resident_nodes_stay_coherent_under_eviction(tmp_path_factory, budget, extra, operations) -> None:
    """Property: with room for only 2-4 resident pages -- every descent
    evicts and re-decodes -- a height >= 3 tree answers like a dict through
    any interleaving of lookups and scans, as written and after reopen.
    """
    path = str(tmp_path_factory.mktemp("coherence") / "tree.bpt")
    model = {**_SEEDED, **extra}
    tree = BPlusTree(path, page_size=_TINY_PAGE)
    tree.pager._cache_limit = budget
    tree.bulk_load(sorted(model.items()))
    assert tree.height >= 3
    for handle in range(2):
        for operation in operations:
            if operation[0] == "get":
                assert tree.get(operation[1]) == model.get(operation[1])
            else:
                assert list(tree.items()) == sorted(model.items())
            assert len(tree.pager._cache) <= budget
        assert len(tree) == len(model)
        height = tree.height
        tree.close()
        tree = BPlusTree(path, page_size=_TINY_PAGE)
        tree.pager._cache_limit = budget
    assert list(tree.items()) == sorted(model.items())
    assert all(tree.get(key) == value for key, value in model.items())
    assert (len(tree), tree.height) == (len(model), height)
    tree.close()


def test_threads_share_resident_nodes_coherently(tmp_path) -> None:
    """More threads than cores over a 4-page budget: lookups and whole scans
    race each other through constant eviction; no reader may ever see a key
    missing or with another key's value."""
    import sys
    import threading

    written = {b"w%04d" % index: bytes([index % 256]) * (index % 60) for index in range(400)}
    model = {**_SEEDED, **written}
    _loaded(tmp_path, model.items(), "shared.bpt", page_size=_TINY_PAGE).close()
    tree = _make(tmp_path, "shared.bpt", page_size=_TINY_PAGE)
    tree.pager._cache_limit = 4
    keys = sorted(model)
    errors = []

    def guarded(body):
        def run() -> None:
            try:
                body()
            except Exception as error:  # the test must report it, not the thread
                errors.append(repr(error))
        return threading.Thread(target=run)

    def lookups(seed: int):
        def body() -> None:
            rng = random.Random(seed)
            for _ in range(3000):
                key = rng.choice(keys)
                if tree.get(key) != model[key]:
                    errors.append(f"get({key!r}) saw a wrong value")
        return body

    def scans() -> None:
        for _ in range(15):
            if dict(tree.items()) != model:
                errors.append("a scan lost or garbled a key")

    threads = [guarded(lookups(seed)) for seed in range(3)] + [guarded(scans), guarded(scans)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert dict(tree.items()) == model
    tree.close()


# ----------------------------------------------------------------------
# bulk_load: running size totals must pack exactly what re-summing packed
# ----------------------------------------------------------------------
def _shared_by_loop(previous: bytes, key: bytes) -> int:
    """The per-byte loop ``_shared_prefix`` is the C-speed form of."""
    shared = 0
    for ours, theirs in zip(previous[:255], key[:255]):
        if ours != theirs:
            break
        shared += 1
    return shared


def _reference_bulk_load(tree: BPlusTree, items) -> None:
    """The append-then-re-measure loader ``bulk_load`` had before it kept
    running totals: every fit test re-sums the whole node with ``encode_varint``
    -- restated for front-coded leaves: a record is the shared length (one
    byte), the suffix and the payload behind their lengths, and the flag."""
    from repro.storage.bptree import _Internal, _Leaf
    from repro.storage.codec import encode_varint

    page_size = tree.pager.page_size

    def leaf_fits(leaf) -> bool:
        size = 1 + 4 + len(encode_varint(len(leaf.keys)))
        previous = b""
        for key, (_, payload) in zip(leaf.keys, leaf.values):
            suffix = len(key) - _shared_by_loop(previous, key)
            size += 1 + len(encode_varint(suffix)) + suffix + 1
            size += len(encode_varint(len(payload))) + len(payload)
            previous = key
        return size <= page_size

    def internal_fits(node) -> bool:
        size = 1 + len(encode_varint(len(node.keys))) + 4 * len(node.children)
        return size + sum(len(encode_varint(len(key))) + len(key) for key in node.keys) <= page_size

    level = []
    current, current_page = _Leaf(), tree._root
    for key, value in items:
        payload = tree._store_value(value)
        current.keys.append(key)
        current.values.append(payload)
        if not leaf_fits(current):
            current.keys.pop()
            current.values.pop()
            level.append((current.keys[0], current_page))
            current.next_leaf = tree.pager.allocate()
            tree._write_leaf(current_page, current)
            current_page, current = current.next_leaf, _Leaf([key], [payload])
    level.append((current.keys[0], current_page))
    tree._write_leaf(current_page, current)
    tree._count = len(items)
    height = 1
    while len(level) > 1:
        next_level = []
        node, node_first_key = _Internal(children=[level[0][1]]), level[0][0]
        for first_key, page_id in level[1:]:
            node.keys.append(first_key)
            node.children.append(page_id)
            if not internal_fits(node):
                node.keys.pop()
                node.children.pop()
                page = tree.pager.allocate()
                tree._write_internal(page, node)
                next_level.append((node_first_key, page))
                node, node_first_key = _Internal(children=[page_id]), first_key
        page = tree.pager.allocate()
        tree._write_internal(page, node)
        next_level.append((node_first_key, page))
        level = next_level
        height += 1
    tree._root, tree._height = level[0][1], height
    tree._write_meta()
    tree.pager.flush()


def _file_bytes(tree: BPlusTree) -> bytes:
    with open(tree.pager.path, "rb") as handle:
        return handle.read()


#: Keys on both sides of the one-byte length prefix, values on both sides of
#: the overflow threshold (a quarter of the 512-byte page).
_bulk_items = st.dictionaries(
    st.one_of(st.binary(min_size=1, max_size=12), st.binary(min_size=128, max_size=160)),
    st.one_of(st.binary(max_size=40), st.binary(min_size=120, max_size=140), st.binary(min_size=600, max_size=700)),
    max_size=120,
).map(lambda mapping: sorted(mapping.items()))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_bulk_items)
def test_bulk_load_writes_the_bytes_the_resumming_loader_wrote(tmp_path_factory, items) -> None:
    directory = tmp_path_factory.mktemp("bulk")
    loaded = BPlusTree(str(directory / "loaded.bpt"), page_size=512)
    reference = BPlusTree(str(directory / "reference.bpt"), page_size=512)
    loaded.bulk_load(items)
    if items:
        _reference_bulk_load(reference, items)
    assert _file_bytes(loaded) == _file_bytes(reference)
    assert list(loaded.items()) == items
    loaded.close()
    reference.close()


def test_bulk_load_is_byte_identical_on_a_tall_tree_and_sizes_each_item_once(tmp_path, monkeypatch) -> None:
    rng = random.Random(15)
    keys = sorted({bytes(rng.randrange(256) for _ in range(rng.choice((6, 140)))) for _ in range(900)})
    items = [(key, bytes(rng.randrange(256) for _ in range(rng.choice((3, 30, 127, 129, 900))))) for key in keys]
    reference = _make(tmp_path, "reference.bpt", page_size=512)
    _reference_bulk_load(reference, items)
    assert reference.height >= 3

    from repro.storage import bptree

    sized = []
    encode = bptree._leaf_record

    def recording(previous, key, value):
        sized.append((previous, key))
        return encode(previous, key, value)

    monkeypatch.setattr(bptree, "_leaf_record", recording)
    loaded = _make(tmp_path, "loaded.bpt", page_size=512)
    loaded.bulk_load(items)
    # A record's length is its size.  One encoding per item against the key
    # before it, and a second, as a whole key, for the item that did not fit
    # and opens the next leaf: the re-summing loader measured every item once
    # per item already in the leaf, and then encoded it.
    openers = set()
    leaf = reference._node(reference._find_leaf(b"")[0])
    while leaf.next_leaf:
        leaf = reference._node(leaf.next_leaf)
        openers.add(leaf.keys[0])
    assert len(openers) > 100
    expected = []
    for previous, key in zip([b""] + keys, keys):
        expected.append((previous, key))
        if key in openers:
            expected.append((b"", key))
    assert sized == expected
    assert loaded.height == reference.height
    assert _file_bytes(loaded) == _file_bytes(reference)
    loaded.close()
    reference.close()


# ----------------------------------------------------------------------
# The v2 page layout: one overflow stream, front-coded leaves
# ----------------------------------------------------------------------
_HEADER = 7  # overflow page header: type, next page, bytes used


def _pages(tree: BPlusTree) -> list:
    data = _file_bytes(tree)
    size = tree.pager.page_size
    return [data[offset:offset + size] for offset in range(0, len(data), size)]


def _patch(tree: BPlusTree, page_id: int, offset: int, data: bytes) -> BPlusTree:
    """Close *tree*, overwrite bytes of one page in its file, reopen it."""
    path, size = tree.pager.path, tree.pager.page_size
    tree.close()
    with open(path, "r+b") as handle:
        handle.seek(page_id * size + offset)
        handle.write(data)
    return BPlusTree(path, page_size=size)


class TestPageLayout:
    def test_a_leaf_page_is_front_coded_record_for_record(self, tmp_path) -> None:
        tree = _make(tmp_path, page_size=256)
        tree.bulk_load([(b"NP", b"1"), (b"NP(DT)", b""), (b"NP(DT)(NN)", b"22"), (b"VP", b"3")])
        assert _pages(tree)[1].rstrip(b"\x00") == (
            b"\x04" + b"\x00\x00\x00\x00" + b"\x04"       # v2 leaf, no next leaf, 4 records
            + b"\x00\x02NP" + b"\x00\x011"                # shared 0, suffix, inline flag, value
            + b"\x02\x04(DT)" + b"\x00\x00"
            + b"\x06\x04(NN)" + b"\x00\x0222"
            + b"\x00\x02VP" + b"\x00\x013"
        )
        tree.close()

    def test_long_values_run_end_to_end_through_the_overflow_pages(self, tmp_path) -> None:
        tree = _make(tmp_path, page_size=256)  # threshold 64, 249 value bytes a page
        first, second, third = b"a" * 100, b"b" * 300, b"c" * 120
        tree.bulk_load([(b"k1", first), (b"k2", b"inline"), (b"k3", second), (b"k4", third)])
        pages = _pages(tree)
        assert pages[1] == (
            b"\x04\x00\x00\x00\x00\x04"
            # overflow flag, then the pointer: first page, length, offset in that page
            + b"\x00\x02k1" + b"\x01\x0a" + b"\x02\x00\x00\x00" + b"\x64\x00\x00\x00" + b"\x00\x00"
            + b"\x01\x012" + b"\x00\x06inline"
            + b"\x01\x013" + b"\x01\x0a" + b"\x02\x00\x00\x00" + b"\x2c\x01\x00\x00" + b"\x64\x00"
            + b"\x01\x014" + b"\x01\x0a" + b"\x03\x00\x00\x00" + b"\x78\x00\x00\x00" + b"\x97\x00"
        ).ljust(256, b"\x00")
        stream = first + second + third
        assert pages[2] == b"\x03" + b"\x03\x00\x00\x00" + b"\xf9\x00" + stream[:249]
        assert pages[3] == b"\x03" + b"\x04\x00\x00\x00" + b"\xf9\x00" + stream[249:498]
        assert pages[4] == (b"\x03" + b"\x00\x00\x00\x00" + b"\x16\x00" + stream[498:]).ljust(256, b"\x00")
        assert len(pages) == 5
        assert [tree.get(key) for key in (b"k1", b"k3", b"k4")] == [first, second, third]
        assert tree.page_census() == {
            "meta": {"pages": 1, "payload_bytes": 20, "slack_bytes": 236},
            "leaf": {"pages": 1, "payload_bytes": 63, "slack_bytes": 193},
            "overflow": {"pages": 3, "payload_bytes": 3 * _HEADER + 520, "slack_bytes": 249 - 22},
        }
        tree.close()


class TestOverflowCorruption:
    """A damaged chain is a named error, never a short or a foreign value."""

    def _tree(self, tmp_path) -> BPlusTree:
        tree = _make(tmp_path)
        # Pages 2-4 hold the 10 240 bytes of "big", page 4 goes on with "next".
        tree.bulk_load([(b"big", bytes(range(256)) * 40), (b"next", b"n" * 3000), (b"small", b"s")])
        assert tree.page_census()["overflow"]["pages"] == 4
        return tree

    def test_a_chain_that_ends_early(self, tmp_path) -> None:
        tree = _patch(self._tree(tmp_path), 2, 1, b"\x00\x00\x00\x00")  # next page of the first
        with pytest.raises(BPlusTreeError, match="chain ends at page 2 with 6151 bytes owed"):
            tree.get(b"big")
        assert tree.get(b"next") == b"n" * 3000  # a chain of its own, whole
        assert tree.get(b"small") == b"s"
        tree.close()

    def test_more_bytes_used_than_a_page_holds(self, tmp_path) -> None:
        tree = _patch(self._tree(tmp_path), 3, 5, (4090).to_bytes(2, "little"))
        with pytest.raises(BPlusTreeError, match="overflow page 3 is malformed: 4090 of 4089 bytes used"):
            tree.get(b"big")
        tree.close()

    def test_fewer_bytes_used_than_the_values_on_the_page_need(self, tmp_path) -> None:
        # "big" ends 2 062 bytes into page 4 and "next" starts there.
        tree = _patch(self._tree(tmp_path), 4, 5, (2000).to_bytes(2, "little"))
        with pytest.raises(BPlusTreeError, match="overflow page 4 is malformed: 2000 of 4089 bytes used"):
            tree.get(b"big")
        with pytest.raises(BPlusTreeError, match="bytes 2062-4089 expected"):
            tree.get(b"next")
        tree.close()

    def test_a_pointer_whose_offset_lies_past_the_bytes_used(self, tmp_path) -> None:
        tree = self._tree(tmp_path)
        leaf = _pages(tree)[1]
        pointer = struct.pack("<IIH", 4, 3000, 2062)  # page 4, 3 000 bytes, at 2 062
        at = leaf.index(pointer)
        tree = _patch(tree, 1, at + 8, struct.pack("<H", 4089))  # the first byte past any page's last
        with pytest.raises(BPlusTreeError, match="overflow page 4 is malformed"):
            tree.get(b"next")
        tree.close()

    def test_a_chain_that_leaves_the_overflow_pages(self, tmp_path) -> None:
        tree = _patch(self._tree(tmp_path), 2, 1, b"\x01\x00\x00\x00")  # on into the leaf
        with pytest.raises(BPlusTreeError, match="page 1 is not an overflow page"):
            tree.get(b"big")
        with pytest.raises(BPlusTreeError, match="page 1 is not an overflow page"):
            list(tree.items())
        tree.close()


class TestValueReads:
    """A get reads the leaf and the overflow pages its value lies on: none
    for an inline value or an absent key once the path is resident."""

    def test_a_get_reads_the_pages_its_value_lies_on(self, tmp_path) -> None:
        tree = _make(tmp_path)
        big = bytes(range(256)) * 200  # 13 overflow pages
        tree.bulk_load([(b"big", big), (b"other", b"o" * 2000), (b"small", b"tiny")])
        tree.close()
        tree = _make(tmp_path)
        assert tree.get(b"small") == b"tiny"  # the path is resident from here on
        reads = tree.pager.read_count
        assert tree.get(b"absent") is None and tree.get(b"small") == b"tiny"
        assert tree.pager.read_count == reads
        assert tree.get(b"big") == big
        assert tree.pager.read_count == reads + 13
        assert tree.get(b"other") == b"o" * 2000  # starts on the page "big" ends on
        assert tree.pager.read_count == reads + 14
        tree.close()

    def test_a_value_that_straddles_two_pages(self, tmp_path) -> None:
        tree = _make(tmp_path, page_size=256)
        # "b" starts four bytes before the first overflow page ends.
        tree.bulk_load([(b"a", b"a" * 245), (b"b", bytes(range(100)))])
        assert tree.get(b"b") == bytes(range(100))
        assert tree.get(b"a") == b"a" * 245
        tree.close()

    def test_every_get_is_counted_present_or_absent(self, tmp_path) -> None:
        tree = _loaded(tmp_path, [(b"key", b"value")])
        assert tree.get(b"key") == b"value" and tree.get(b"nope") is None
        stats = tree.probe_stats
        assert (stats.gets, stats.cache_hits, stats.tree_descents) == (2, 0, 2)
        tree.close()


# Values on both sides of the threshold (a quarter of 512) and of one, two and
# three pages' worth of stream (505 bytes each).
_stream_values = st.one_of(
    st.integers(0, 40), st.integers(126, 131), st.integers(500, 512),
    st.integers(1005, 1015), st.integers(1510, 1520),
).map(lambda size: bytes([size % 251]) * size)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(_stream_values, max_size=40))
def test_the_overflow_stream_wastes_less_than_one_page(tmp_path_factory, values) -> None:
    """Property: every value reads back, and the long ones fill
    ceil(stream bytes / page capacity) overflow pages between them."""
    path = str(tmp_path_factory.mktemp("stream") / "tree.bpt")
    tree = BPlusTree(path, page_size=512)
    items = [(b"key%03d" % index, value) for index, value in enumerate(values)]
    tree.bulk_load(items)
    stream = sum(len(value) for value in values if len(value) > 128)
    census = tree.page_census()
    assert census.get("overflow", {"pages": 0})["pages"] == -(-stream // (512 - _HEADER))
    assert sum(row["pages"] for row in census.values()) * 512 == tree.size_bytes()
    assert list(tree.items()) == items
    assert all(tree.get(key) == value for key, value in items)
    tree.close()
    reopened = BPlusTree(path, page_size=512)
    assert list(reopened.items()) == items
    assert all(reopened.get(key) == value for key, value in items)
    reopened.close()


# Families of keys that share nothing, a little, 254, 255, 256 and 300 bytes.
_prefixed_keys = st.tuples(
    st.sampled_from([b"", b"p" * 9, b"q" * 254, b"r" * 255, b"s" * 256, b"t" * 300]),
    st.binary(min_size=1, max_size=6),
).map(lambda parts: parts[0] + parts[1])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    entries=st.dictionaries(
        _prefixed_keys, st.one_of(st.binary(max_size=24), st.integers(257, 600).map(bytes)), max_size=80
    ),
)
def test_front_coded_leaves_hold_any_mix_of_shared_prefixes(tmp_path_factory, entries) -> None:
    """Property: keys sharing nothing, a few, 254-256 or 300 bytes with their
    neighbours (a leaf's first key re-sized as whole): no page outgrows the
    page size -- the writers raise if one would -- every page decodes, every
    key reads back, and a reopened tree says the same."""
    directory = tmp_path_factory.mktemp("front")
    items = sorted(entries.items())
    tree = BPlusTree(str(directory / "loaded.bpt"), page_size=1024)
    tree.bulk_load(items)
    assert list(tree.items()) == items
    assert all(tree.get(key) == value for key, value in items)
    census = tree.page_census()  # decodes every node page from the file
    assert sum(row["pages"] for row in census.values()) * 1024 == tree.size_bytes()
    assert all(row["slack_bytes"] >= 0 for row in census.values())
    tree.close()
    reopened = BPlusTree(tree.pager.path, page_size=1024)
    assert list(reopened.items()) == items
    reopened.close()


def test_keys_that_share_a_long_prefix_are_stored_as_their_suffixes(tmp_path) -> None:
    tree = _make(tmp_path)
    keys = [b"S(NP(DT)(JJ)(NN))(VP(VBD)(NP(DT)(NN)))" * 5 + b"%04d" % index for index in range(400)]
    tree.bulk_load([(key, b"v") for key in keys])
    census = tree.page_census()
    assert sum(map(len, keys)) > 75_000 and census["leaf"]["payload_bytes"] < 4_000
    assert census["leaf"]["pages"] == 1  # twenty, with the keys whole
    assert [key for key, _ in tree.items()] == keys
    tree.close()


def test_shared_prefix_is_the_per_byte_loop() -> None:
    from repro.storage.bptree import _shared_prefix

    rng = random.Random(21)
    for _ in range(2000):
        stem = bytes(rng.randrange(2) for _ in range(rng.choice((0, 1, 7, 254, 255, 256, 300))))
        ours = stem + bytes(rng.randrange(256) for _ in range(rng.randrange(4)))
        theirs = stem + bytes(rng.randrange(256) for _ in range(rng.randrange(4)))
        assert _shared_prefix(ours, theirs) == _shared_by_loop(ours, theirs) <= 255
    assert _shared_prefix(b"", b"abc") == _shared_prefix(b"abc", b"") == 0
    assert _shared_prefix(b"\x00\x00", b"\x00\x00\x00") == 2  # zero bytes count like any other


def test_a_damaged_leaf_record_is_a_named_error(tmp_path) -> None:
    tree = _make(tmp_path, page_size=256)
    tree.bulk_load([(b"NP", b"1"), (b"NP(DT)", b"2"), (b"long", b"l" * 100)])
    leaf = _pages(tree)[1]
    shared_at = leaf.index(b"\x02\x04(DT)")
    tree = _patch(tree, 1, shared_at, b"\x03")  # shares three bytes with the two-byte "NP"
    with pytest.raises(BPlusTreeError, match="page 1 is malformed: a key shares more"):
        tree.get(b"NP")
    with pytest.raises(BPlusTreeError, match="page 1 is malformed"):
        tree.page_census()
    tree = _patch(tree, 1, shared_at, b"\x02")
    assert tree.get(b"NP(DT)") == b"2"
    tree = _patch(tree, 1, leaf.index(b"\x01\x0a"), b"\x01\x09")  # a nine-byte pointer
    with pytest.raises(BPlusTreeError, match="page 1 is malformed: an overflow pointer of 9 bytes"):
        tree.get(b"long")
    tree.close()
