"""Unit and property tests for canonical key encoding."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.keys import (
    KeyFormatError,
    canonical_key,
    decode_key,
)
from repro.trees.node import Node, build_tree


class TestCanonicalKey:
    def test_leaf(self) -> None:
        key, ordered = canonical_key(Node("NN"))
        assert key == b"NN"
        assert len(ordered) == 1

    def test_children_sorted(self) -> None:
        key_ab, _ = canonical_key(build_tree(("A", ["C", "B"])))
        key_ba, _ = canonical_key(build_tree(("A", ["B", "C"])))
        assert key_ab == key_ba == b"A(B)(C)"

    def test_symmetric_subtrees_share_key(self) -> None:
        # The paper: postings of A(B)(C) and A(C)(B) live under the same key.
        left = build_tree(("A", [("C", ["D"]), ("B", [])]))
        right = build_tree(("A", [("B", []), ("C", ["D"])]))
        assert canonical_key(left)[0] == canonical_key(right)[0]

    def test_deep_sorting(self) -> None:
        tree = build_tree(("A", [("B", ["Z"]), ("B", ["A"])]))
        key, _ = canonical_key(tree)
        assert key == b"A(B(A))(B(Z))"

    def test_canonical_order_starts_at_root(self) -> None:
        tree = build_tree(("A", ["C", "B"]))
        _, ordered = canonical_key(tree)
        assert ordered[0] is tree
        assert [node.label for node in ordered] == ["A", "B", "C"]


class TestSubtreeKey:
    def test_decode_simple(self) -> None:
        key = decode_key(b"NP(DT)(NN)")
        assert key.label == "NP"
        assert [child.label for child in key.children] == ["DT", "NN"]
        assert key.size == 3

    def test_decode_nested(self) -> None:
        key = decode_key("S(NP(NNS))(VP)")
        assert key.size == 4
        assert key.labels() == ["S", "NP", "NNS", "VP"]

    def test_encode_round_trip(self) -> None:
        original = b"S(NP(DT)(NN))(VP(VBZ))"
        assert decode_key(original).encode() == original

    @pytest.mark.parametrize("bad", [b"", b"(", b"A(", b"A(B", b"A()", b"A(B))", b"A)B"])
    def test_malformed_keys_rejected(self, bad: bytes) -> None:
        with pytest.raises(KeyFormatError):
            decode_key(bad)



# ----------------------------------------------------------------------
# Property tests over random small trees.
# ----------------------------------------------------------------------
_LABELS = ["NP", "VP", "DT", "NN", "S", "PP", "JJ"]


def _random_tree(draw, depth: int = 0) -> Node:
    label = draw(st.sampled_from(_LABELS))
    if depth >= 3:
        return Node(label)
    child_count = draw(st.integers(min_value=0, max_value=3 if depth < 2 else 1))
    return Node(label, [_random_tree(draw, depth + 1) for _ in range(child_count)])


random_trees = st.composite(_random_tree)


@given(tree=random_trees())
def test_canonical_key_round_trips_through_decode(tree: Node) -> None:
    key, ordered = canonical_key(tree)
    parsed = decode_key(key)
    assert parsed.encode() == key
    assert parsed.size == tree.size() == len(ordered)


@given(tree=random_trees(), seed=st.integers(min_value=0, max_value=1000))
def test_canonical_key_invariant_under_child_permutation(tree: Node, seed: int) -> None:
    """Permuting children anywhere in the tree never changes the canonical key."""
    import random as _random

    def shuffled(node: Node, rng: _random.Random) -> Node:
        children = [shuffled(child, rng) for child in node.children]
        rng.shuffle(children)
        return Node(node.label, children)

    permuted = shuffled(tree, _random.Random(seed))
    assert canonical_key(tree)[0] == canonical_key(permuted)[0]


@given(tree=random_trees())
def test_canonical_order_is_consistent_with_key_labels(tree: Node) -> None:
    key, ordered = canonical_key(tree)
    assert [node.label for node in ordered] == decode_key(key).labels()
