"""Unit tests for the in-memory delta segment."""

from __future__ import annotations

import pytest

from repro.coding.base import get_coding
from repro.coding.postings import PostingColumns
from repro.core.index import SubtreeIndex
from repro.live.delta import DeltaSegment
from repro.trees.penn import scan_penn, to_penn
from tests.coding.recordkit import rows

CODINGS = ("filter", "root-split", "subtree-interval")


def _add(delta: DeltaSegment, tree) -> None:
    record, numbering = scan_penn(to_penn(tree.root))
    delta.add_tree(tree.tid, record.encode("utf-8"), numbering)


def _columns(postings: PostingColumns) -> tuple:
    """Every column as a plain list (a decoded one may be ``bytes``)."""
    return (
        list(postings.tids),
        [[list(column) for column in slot] for slot in postings.slots],
        None if postings.orders is None else [list(order) for order in postings.orders],
    )


@pytest.mark.parametrize("mss", (1, 3, 4))
@pytest.mark.parametrize("coding", CODINGS)
def test_delta_stores_what_a_fresh_build_would(tmp_path, tiny_corpus, coding, mss) -> None:
    """Per-key postings in the delta are exactly a built index's postings --
    as lists, column by column, and as the bytes a compaction writes."""
    trees = list(tiny_corpus)[:10]
    delta = DeltaSegment(mss=mss, coding=get_coding(coding))
    for tree in trees:
        _add(delta, tree)
    built = SubtreeIndex.build(
        trees, mss=mss, coding=coding, path=str(tmp_path / f"ref-{coding}.si")
    )
    try:
        delta_items = list(delta.items())
        built_items = list(built.items())
        assert [key for key, _ in delta_items] == [key for key, _ in built_items]
        for (key, delta_postings), (_, built_postings) in zip(delta_items, built_items):
            assert isinstance(delta_postings, PostingColumns)
            assert delta_postings == built_postings, key
            assert _columns(delta_postings) == _columns(built_postings), key
            assert delta.posting_list_length(key) == len(built_postings) == built.posting_list_length(key)
        assert list(delta.encoded_lists()) == list(built.raw_items())
        assert delta.key_count == built.key_count
        assert delta.posting_count == built.posting_count
        assert delta.tree_count == built.metadata.tree_count
    finally:
        built.close()


@pytest.mark.parametrize("coding", CODINGS)
def test_encoded_without_dead_trees_is_a_build_of_the_survivors(tmp_path, tiny_corpus, coding) -> None:
    trees = list(tiny_corpus)[:10]
    delta = DeltaSegment(mss=3, coding=get_coding(coding))
    for tree in trees:
        _add(delta, tree)
    dead = {trees[0].tid, trees[4].tid, trees[9].tid}
    survivors = [tree for tree in trees if tree.tid not in dead]
    with SubtreeIndex.build(survivors, mss=3, coding=coding, path=str(tmp_path / "alive.si")) as built:
        assert list(delta.encoded_lists(dead)) == list(built.raw_items())


@pytest.mark.parametrize("coding", CODINGS)
def test_columns_handed_out_survive_later_adds(tiny_corpus, coding) -> None:
    """Copy-on-write per key: a reader's columns are a stable snapshot."""
    trees = list(tiny_corpus)[:8]
    delta = DeltaSegment(mss=3, coding=get_coding(coding))
    for tree in trees[:4]:
        _add(delta, tree)
    held = {key: (postings, _columns(postings), rows(postings)) for key, postings in delta.items()}
    assert all(delta.lookup(key) is postings for key, (postings, _, _) in held.items())  # cached
    for tree in trees[4:]:
        _add(delta, tree)
    grown = 0
    for key, (postings, columns, records) in held.items():
        assert _columns(postings) == columns and rows(postings) == records, key
        now = delta.lookup(key)
        assert rows(now)[: len(records)] == records
        grown += now is not postings  # an untouched key keeps its columns
        assert delta.posting_list_length(key) == len(now)
    assert 0 < grown
    assert delta.posting_list_length(b"no such key") == 0


def test_lookup_before_and_after_adds(tiny_corpus) -> None:
    delta = DeltaSegment(mss=2, coding=get_coding("root-split"))
    assert len(delta.lookup(b"NP(DT)")) == 0
    for tree in list(tiny_corpus)[:5]:
        _add(delta, tree)
    postings = delta.lookup(b"NP(DT)")
    assert postings
    assert list(postings.tids) == sorted(postings.tids)


def test_tids_must_ascend(tiny_corpus) -> None:
    delta = DeltaSegment(mss=2, coding=get_coding("root-split"))
    trees = list(tiny_corpus)
    _add(delta, trees[3])
    with pytest.raises(ValueError, match="ascending"):
        _add(delta, trees[1])
    with pytest.raises(ValueError, match="ascending"):
        _add(delta, trees[3])  # equal tid is just as illegal


@pytest.mark.parametrize("coding", CODINGS)
def test_readers_racing_adds_never_see_a_torn_list(tiny_corpus, coding) -> None:
    """Readers look keys up while a writer adds trees: whatever they get has
    columns of one length, ascends in tid and extends what they saw before."""
    import sys
    import threading

    trees = list(tiny_corpus)
    delta = DeltaSegment(mss=3, coding=get_coding(coding))
    _add(delta, trees[0])
    keys = [key for key, _ in delta.items()][:40]
    failures: list = []
    done = threading.Event()

    def read() -> None:
        seen = {key: [] for key in keys}
        while not done.is_set() and not failures:
            for key in keys:
                postings = delta.lookup(key)
                tids, columns = list(postings.tids), _columns(postings)
                lengths = {len(tids), *(len(c) for slot in columns[1] for c in slot), *(len(o) for o in columns[2] or ())}
                if len(lengths) != 1 or tids != sorted(tids) or tids[: len(seen[key])] != seen[key]:
                    failures.append((key, tids, seen[key]))
                seen[key] = tids

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for reader in readers:
            reader.start()
        for tree in trees[1:]:
            _add(delta, tree)
    finally:
        done.set()
        for reader in readers:
            reader.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not failures, failures[0]
    assert delta.tree_count == len(trees)


def test_trees_are_kept_as_data_file_records(tiny_corpus) -> None:
    """The delta holds an added tree as the record it was given, the Penn
    line a data file stores, and parses it on ``get``."""
    trees = list(tiny_corpus)[:3]
    delta = DeltaSegment(mss=2, coding=get_coding("root-split"))
    for tree in trees[:2]:
        _add(delta, tree)
    assert delta.trees.tids() == [trees[0].tid, trees[1].tid] and len(delta.trees) == 2
    for tree in trees[:2]:
        assert delta.trees.record(tree.tid) == to_penn(tree.root).encode("utf-8")
        fetched = delta.trees.get(tree.tid)
        assert fetched.tid == tree.tid and to_penn(fetched.root) == to_penn(tree.root)
        assert fetched.root is not tree.root  # parsed on demand, not kept
    assert trees[2].tid not in delta.trees
    with pytest.raises(KeyError):
        delta.trees.get(trees[2].tid)
