"""Unit tests for the in-memory delta segment."""

from __future__ import annotations

import pytest

from repro.coding.base import get_coding
from repro.core.index import SubtreeIndex
from repro.live.delta import DeltaSegment

CODINGS = ("filter", "root-split", "subtree-interval")


@pytest.mark.parametrize("coding", CODINGS)
def test_delta_stores_what_a_fresh_build_would(tmp_path, tiny_corpus, coding) -> None:
    """Per-key postings in the delta are exactly a built index's postings."""
    trees = list(tiny_corpus)[:10]
    delta = DeltaSegment(mss=3, coding=get_coding(coding))
    for tree in trees:
        delta.add_tree(tree)
    built = SubtreeIndex.build(
        trees, mss=3, coding=coding, path=str(tmp_path / f"ref-{coding}.si")
    )
    try:
        delta_items = list(delta.items())
        built_items = list(built.items())
        assert [key for key, _ in delta_items] == [key for key, _ in built_items]
        for (key, delta_postings), (_, built_postings) in zip(delta_items, built_items):
            assert delta_postings == built_postings, key
        assert delta.key_count == built.key_count
        assert delta.posting_count == built.posting_count
        assert delta.tree_count == built.metadata.tree_count
    finally:
        built.close()


def test_lookup_and_has_key(tiny_corpus) -> None:
    delta = DeltaSegment(mss=2, coding=get_coding("root-split"))
    assert delta.lookup(b"NP(DT)") == []
    assert not delta.has_key(b"NP(DT)")
    for tree in list(tiny_corpus)[:5]:
        delta.add_tree(tree)
    postings = delta.lookup(b"NP(DT)")
    assert postings
    assert [p.tid for p in postings] == sorted(p.tid for p in postings)
    assert delta.has_key(b"NP(DT)")


def test_tids_must_ascend(tiny_corpus) -> None:
    delta = DeltaSegment(mss=2, coding=get_coding("root-split"))
    trees = list(tiny_corpus)
    delta.add_tree(trees[3])
    with pytest.raises(ValueError, match="ascending"):
        delta.add_tree(trees[1])
    with pytest.raises(ValueError, match="ascending"):
        delta.add_tree(trees[3])  # equal tid is just as illegal
