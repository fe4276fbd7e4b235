"""Unit and property tests for the disk B+Tree."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.bptree import BPlusTree, BPlusTreeError


def _make(tmp_path, name: str = "tree.bpt", page_size: int = 4096) -> BPlusTree:
    return BPlusTree(str(tmp_path / name), page_size=page_size)


class TestBasicOperations:
    def test_empty_tree(self, tmp_path) -> None:
        tree = _make(tmp_path)
        assert len(tree) == 0
        assert tree.get(b"missing") is None
        assert list(tree.items()) == []

    def test_insert_and_get(self, tmp_path) -> None:
        tree = _make(tmp_path)
        tree.insert(b"alpha", b"1")
        tree.insert(b"beta", b"2")
        assert tree.get(b"alpha") == b"1"
        assert tree.get(b"beta") == b"2"
        assert len(tree) == 2

    def test_insert_replaces_existing(self, tmp_path) -> None:
        tree = _make(tmp_path)
        tree.insert(b"key", b"old")
        tree.insert(b"key", b"new")
        assert tree.get(b"key") == b"new"
        assert len(tree) == 1

    def test_contains(self, tmp_path) -> None:
        tree = _make(tmp_path)
        tree.insert(b"present", b"x")
        assert b"present" in tree
        assert b"absent" not in tree

    def test_non_bytes_key_rejected(self, tmp_path) -> None:
        tree = _make(tmp_path)
        with pytest.raises(TypeError):
            tree.insert("string", b"x")  # type: ignore[arg-type]


class TestSplitsAndOrdering:
    def test_many_inserts_cause_splits(self, tmp_path) -> None:
        tree = _make(tmp_path, page_size=512)
        items = {f"key{index:05d}".encode(): f"value{index}".encode() for index in range(500)}
        for key, value in items.items():
            tree.insert(key, value)
        assert tree.height > 1
        for key, value in items.items():
            assert tree.get(key) == value

    def test_items_are_sorted(self, tmp_path) -> None:
        tree = _make(tmp_path, page_size=512)
        keys = [f"k{index:04d}".encode() for index in range(300)]
        random.Random(0).shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        listed = [key for key, _ in tree.items()]
        assert listed == sorted(keys)

    def test_random_insert_order(self, tmp_path) -> None:
        rng = random.Random(42)
        pairs = {f"{rng.random():.10f}".encode(): str(index).encode() for index in range(400)}
        tree = _make(tmp_path, page_size=512)
        for key, value in pairs.items():
            tree.insert(key, value)
        for key, value in pairs.items():
            assert tree.get(key) == value


class TestLargeValues:
    def test_overflow_values_round_trip(self, tmp_path) -> None:
        tree = _make(tmp_path)
        big = bytes(range(256)) * 200  # ~51 KB, far above a page
        tree.insert(b"big", big)
        tree.insert(b"small", b"tiny")
        assert tree.get(b"big") == big
        assert tree.get(b"small") == b"tiny"

    def test_multiple_overflow_values(self, tmp_path) -> None:
        tree = _make(tmp_path)
        values = {f"key{i}".encode(): bytes([i]) * (5000 + i * 1000) for i in range(8)}
        for key, value in values.items():
            tree.insert(key, value)
        for key, value in values.items():
            assert tree.get(key) == value

    def test_overflow_value_visible_in_items(self, tmp_path) -> None:
        tree = _make(tmp_path)
        big = b"z" * 20000
        tree.insert(b"big", big)
        assert dict(tree.items())[b"big"] == big


class TestPersistence:
    def test_reopen_preserves_content(self, tmp_path) -> None:
        path = str(tmp_path / "persist.bpt")
        tree = BPlusTree(path)
        for index in range(100):
            tree.insert(f"key{index:03d}".encode(), f"value{index}".encode())
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


class TestScans:
    def test_prefix_scan(self, tmp_path) -> None:
        tree = _make(tmp_path)
        for key in [b"NP", b"NP(DT)", b"NP(DT)(NN)", b"NN", b"VP", b"VP(VBZ)"]:
            tree.insert(key, key)
        matches = [key for key, _ in tree.prefix_items(b"NP")]
        assert matches == [b"NP", b"NP(DT)", b"NP(DT)(NN)"]

    def test_prefix_scan_across_pages(self, tmp_path) -> None:
        tree = _make(tmp_path, page_size=512)
        for index in range(300):
            tree.insert(f"A{index:04d}".encode(), b"x")
            tree.insert(f"B{index:04d}".encode(), b"x")
        assert len(list(tree.prefix_items(b"A"))) == 300

    def test_range_scan(self, tmp_path) -> None:
        tree = _make(tmp_path)
        for index in range(50):
            tree.insert(f"{index:03d}".encode(), b"x")
        keys = [key for key, _ in tree.range_items(b"010", b"020")]
        assert keys == [f"{index:03d}".encode() for index in range(10, 20)]


class TestBulkLoad:
    def test_bulk_load_round_trip(self, tmp_path) -> None:
        items = [(f"key{index:05d}".encode(), f"value{index}".encode()) for index in range(1000)]
        tree = _make(tmp_path, page_size=512)
        tree.bulk_load(items)
        assert len(tree) == 1000
        for key, value in items:
            assert tree.get(key) == value
        assert [key for key, _ in tree.items()] == [key for key, _ in items]

    def test_bulk_load_requires_empty_tree(self, tmp_path) -> None:
        tree = _make(tmp_path)
        tree.insert(b"a", b"1")
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([(b"b", b"2")])

    def test_bulk_load_requires_sorted_unique_keys(self, tmp_path) -> None:
        tree = _make(tmp_path)
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([(b"b", b"1"), (b"a", b"2")])
        tree2 = _make(tmp_path, "tree2.bpt")
        with pytest.raises(BPlusTreeError):
            tree2.bulk_load([(b"a", b"1"), (b"a", b"2")])

    def test_bulk_load_with_large_values(self, tmp_path) -> None:
        items = [(f"k{index:02d}".encode(), bytes([index]) * 9000) for index in range(20)]
        tree = _make(tmp_path)
        tree.bulk_load(items)
        for key, value in items:
            assert tree.get(key) == value

    def test_bulk_then_insert(self, tmp_path) -> None:
        tree = _make(tmp_path)
        tree.bulk_load([(f"k{index:03d}".encode(), b"v") for index in range(100)])
        tree.insert(b"zzz", b"new")
        assert tree.get(b"zzz") == b"new"
        assert len(tree) == 101


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    entries=st.dictionaries(
        st.binary(min_size=1, max_size=40), st.binary(max_size=200), max_size=200
    )
)
def test_bptree_behaves_like_a_dict(tmp_path_factory, entries: dict) -> None:
    """Property: after arbitrary inserts, the tree matches an in-memory dict."""
    directory = tmp_path_factory.mktemp("bpt")
    tree = BPlusTree(str(directory / "prop.bpt"), page_size=512)
    for key, value in entries.items():
        tree.insert(key, value)
    assert len(tree) == len(entries)
    for key, value in entries.items():
        assert tree.get(key) == value
    assert [key for key, _ in tree.items()] == sorted(entries)
    tree.close()


class TestReadThroughCache:
    """The value-cache hook: read-through gets, invalidation, probe counters."""

    def _loaded(self, tmp_path) -> BPlusTree:
        tree = _make(tmp_path)
        tree.bulk_load([(f"k{index:03d}".encode(), f"v{index}".encode()) for index in range(50)])
        return tree

    def test_get_populates_and_serves_from_cache(self, tmp_path) -> None:
        from repro.service.cache import LRUCache

        tree = self._loaded(tmp_path)
        tree.attach_cache(LRUCache(16))
        assert tree.get(b"k010") == b"v10"      # miss: descends and caches
        assert tree.get(b"k010") == b"v10"      # hit: no further descent
        stats = tree.probe_stats
        assert stats.gets == 2
        assert stats.cache_hits == 1
        assert stats.tree_descents == 1

    def test_missing_keys_are_cached_too(self, tmp_path) -> None:
        from repro.service.cache import LRUCache

        tree = self._loaded(tmp_path)
        tree.attach_cache(LRUCache(16))
        assert tree.get(b"absent") is None
        assert tree.get(b"absent") is None
        assert tree.probe_stats.tree_descents == 1

    def test_insert_invalidates_the_cached_entry(self, tmp_path) -> None:
        from repro.service.cache import LRUCache

        tree = self._loaded(tmp_path)
        tree.attach_cache(LRUCache(16))
        assert tree.get(b"k005") == b"v5"
        tree.insert(b"k005", b"updated")
        assert tree.get(b"k005") == b"updated"  # stale entry was dropped

    def test_detach_restores_plain_lookups(self, tmp_path) -> None:
        from repro.service.cache import LRUCache

        tree = self._loaded(tmp_path)
        tree.attach_cache(LRUCache(16))
        tree.get(b"k001")
        tree.attach_cache(None)
        tree.get(b"k001")
        assert tree.probe_stats.tree_descents == 2

    def test_probe_stats_without_cache(self, tmp_path) -> None:
        tree = self._loaded(tmp_path)
        tree.get(b"k001")
        tree.get(b"k001")
        stats = tree.probe_stats
        assert stats.gets == 2
        assert stats.cache_hits == 0
        assert stats.tree_descents == 2
        assert stats.cache_misses == 2
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
        read_page = tree.pager._read_page
        tree.pager._read_page = lambda page_id: file_reads.append(page_id) or read_page(page_id)
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
        tree.insert(b"key0300", b"rewritten")
        tree.insert(b"later", b"x" * 400)
        tree.flush()
        other = _make(tmp_path, page_size=512)
        for key, _ in items + [(b"later", b""), (b"absent", b"")]:
            assert other.get(key) == tree.get(key)
        assert list(other.items()) == list(tree.items())
        assert list(other.prefix_items(b"key01")) == list(tree.prefix_items(b"key01"))
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
        st.tuples(st.just("insert"), _op_keys, _op_values),
        st.tuples(st.just("get"), _op_keys),
        st.tuples(st.just("items")),
        st.tuples(st.just("prefix"), st.integers(0, 64).map(lambda index: b"k%03d" % index)),
        st.tuples(st.just("range"), _op_keys, _op_keys),
    ),
    max_size=60,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(budget=st.integers(2, 4), operations=_operations)
def test_resident_nodes_stay_coherent_under_eviction(tmp_path_factory, budget, operations) -> None:
    """Property: with room for only 2-4 resident pages -- every descent
    evicts and re-decodes -- a height >= 3 tree still answers like a dict
    through any interleaving of writes, lookups and scans, and after reopen.
    """
    path = str(tmp_path_factory.mktemp("coherence") / "tree.bpt")
    tree = BPlusTree(path, page_size=_TINY_PAGE)
    tree.pager._cache_limit = budget
    model = dict(_SEEDED)
    for key, value in _SEEDED.items():
        tree.insert(key, value)
    assert tree.height >= 3
    for operation in operations:
        if operation[0] == "insert":
            _, key, value = operation
            tree.insert(key, value)
            model[key] = value
        elif operation[0] == "get":
            assert tree.get(operation[1]) == model.get(operation[1])
        elif operation[0] == "items":
            assert list(tree.items()) == sorted(model.items())
        elif operation[0] == "prefix":
            prefix = operation[1]
            assert list(tree.prefix_items(prefix)) == sorted(
                item for item in model.items() if item[0].startswith(prefix)
            )
        else:
            _, low, high = operation
            assert list(tree.range_items(low, high)) == sorted(
                item for item in model.items() if low <= item[0] < high
            )
        assert len(tree.pager._cache) <= budget
    assert len(tree) == len(model)
    tree.close()
    reopened = BPlusTree(path, page_size=_TINY_PAGE)
    assert list(reopened.items()) == sorted(model.items())
    assert all(reopened.get(key) == value for key, value in model.items())
    assert (len(reopened), reopened.height) == (len(model), tree.height)
    reopened.close()


def test_threads_share_resident_nodes_coherently(tmp_path) -> None:
    """More threads than cores over a 4-page budget: lookups and whole scans
    race a writer that keeps splitting nodes; no reader may ever see a seeded
    key missing or with another key's value, and no write may be lost."""
    import sys
    import threading

    tree = BPlusTree(str(tmp_path / "shared.bpt"), page_size=_TINY_PAGE)
    tree.pager._cache_limit = 4
    for key, value in _SEEDED.items():
        tree.insert(key, value)
    seeded_keys = sorted(_SEEDED)
    written = {b"w%04d" % index: bytes([index % 256]) * (index % 60) for index in range(400)}
    errors = []
    done = threading.Event()

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
            while not done.is_set():
                key = rng.choice(seeded_keys)
                if tree.get(key) != _SEEDED[key]:
                    errors.append(f"get({key!r}) saw a wrong value")
        return body

    def scans() -> None:
        while not done.is_set():
            seen = dict(tree.items())
            if any(seen.get(key) != value for key, value in _SEEDED.items()):
                errors.append("a scan lost or garbled a seeded key")

    def writes() -> None:
        try:
            for key, value in written.items():
                tree.insert(key, value)
        finally:
            done.set()

    threads = [guarded(lookups(seed)) for seed in range(3)] + [guarded(scans), guarded(writes)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert dict(tree.items()) == {**_SEEDED, **written}
    tree.close()


# ----------------------------------------------------------------------
# bulk_load: running size totals must pack exactly what re-summing packed
# ----------------------------------------------------------------------
def _reference_bulk_load(tree: BPlusTree, items) -> None:
    """The append-then-re-measure loader ``bulk_load`` had before it kept
    running totals: every fit test re-sums the whole node with ``encode_varint``."""
    from repro.storage.bptree import _Internal, _Leaf
    from repro.storage.codec import encode_varint

    page_size = tree.pager.page_size

    def leaf_fits(leaf) -> bool:
        size = 1 + 4 + len(encode_varint(len(leaf.keys)))
        for key, (_, payload) in zip(leaf.keys, leaf.values):
            size += len(encode_varint(len(key))) + len(key) + 1
            size += len(encode_varint(len(payload))) + len(payload)
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
    tree.flush()
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

    sized = []
    measure = BPlusTree._leaf_entry_size
    monkeypatch.setattr(
        BPlusTree, "_leaf_entry_size", staticmethod(lambda key, payload: sized.append(key) or measure(key, payload))
    )
    loaded = _make(tmp_path, "loaded.bpt", page_size=512)
    loaded.bulk_load(items)
    # One measurement per item: the re-summing loader took one per item per
    # item already in the leaf.
    assert sized == keys
    assert loaded.height == reference.height
    assert _file_bytes(loaded) == _file_bytes(reference)
    loaded.close()
    reference.close()
