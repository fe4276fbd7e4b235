"""Unit tests for subtree enumeration (index key extraction)."""

from __future__ import annotations

from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.base import get_coding
from repro.coding.postings import FilterPosting, NodeCode, RootPosting, SubtreePosting
from repro.core.enumeration import (
    count_subtrees_per_node,
    enumerate_key_occurrences,
    enumerate_subtrees,
    extract_subtrees,
    subtree_count_by_root_branching,
)
from repro.core.index import accumulate_posting_lists
from repro.trees.node import ParseTree, build_tree
from repro.trees.numbering import number_tree


def _keys(tree: ParseTree, mss: int) -> Counter:
    return Counter(key for key, _ in enumerate_key_occurrences(tree, mss))


class TestEnumerateSubtrees:
    def test_mss_one_yields_every_node(self, figure4_tree: ParseTree) -> None:
        subtrees = list(enumerate_subtrees(figure4_tree, 1))
        assert len(subtrees) == figure4_tree.size()
        assert all(subtree.size == 1 for subtree in subtrees)

    def test_size_two_subtrees_are_edges(self, figure4_tree: ParseTree) -> None:
        subtrees = [s for s in enumerate_subtrees(figure4_tree, 2) if s.size == 2]
        # One subtree of size 2 per edge of the tree.
        assert len(subtrees) == figure4_tree.size() - 1

    def test_invalid_mss_rejected(self, figure4_tree: ParseTree) -> None:
        with pytest.raises(ValueError):
            list(enumerate_subtrees(figure4_tree, 0))

    def test_unique_keys_of_size_two(self, figure4_tree: ParseTree) -> None:
        # Tree A(B)(C(A(C)(D))): edges A-B, A-C, C-A, A-C (inner), A-D.
        size_two = {key for key, occ in enumerate_key_occurrences(figure4_tree, 2) if occ.size == 2}
        assert size_two == {b"A(B)", b"A(C)", b"C(A)", b"A(D)"}

    def test_star_tree_counts_match_binomial(self) -> None:
        # Root with n-1 leaf children has C(n-1, m-1) subtrees of size m.
        tree = ParseTree(build_tree(("R", [f"L{i}" for i in range(6)])), tid=0)
        for size in range(2, 5):
            count = sum(1 for s in enumerate_subtrees(tree, size) if s.size == size)
            assert count == comb(6, size - 1)

    def test_chain_tree_counts(self) -> None:
        # A unary chain of height n has n - m + 1 subtrees of size m.
        tree = ParseTree(build_tree(("A", [("B", [("C", [("D", [("E", [])])])])])), tid=0)
        for size in range(1, 6):
            count = sum(1 for s in enumerate_subtrees(tree, 5) if s.size == size)
            assert count == 5 - size + 1

    def test_all_subtrees_are_connected_and_rooted(self, paper_tree: ParseTree) -> None:
        for subtree in enumerate_subtrees(paper_tree, 3):
            # Every child of an occurrence node is a child of the data node.
            stack = [subtree]
            while stack:
                item = stack.pop()
                for child in item.children:
                    assert child.node in item.node.children
                    stack.append(child)


class TestKeyOccurrences:
    def test_occurrence_codes_are_canonically_ordered(self, paper_tree: ParseTree) -> None:
        from repro.core.keys import decode_key

        for key, occurrence in enumerate_key_occurrences(paper_tree, 3):
            assert occurrence.size == decode_key(key).size
            # The root is canonical position 0 and is the shallowest node.
            assert occurrence.root.level == min(code.level for code in occurrence.codes)
            # The root contains every other node of the occurrence.
            for code in occurrence.codes[1:]:
                assert occurrence.root.is_ancestor_of(code)

    def test_occurrences_carry_tid(self, paper_tree: ParseTree) -> None:
        for _, occurrence in enumerate_key_occurrences(paper_tree, 2):
            assert occurrence.tid == paper_tree.tid

    def test_symmetric_instances_share_key(self) -> None:
        tree = ParseTree(build_tree(("A", [("B", []), ("C", []), ("B", [])])), tid=0)
        keys = _keys(tree, 2)
        assert keys[b"A(B)"] == 2
        assert keys[b"A(C)"] == 1


class TestFigure3Statistics:
    def test_branching_factor_drives_subtree_count(self, small_corpus) -> None:
        averages = subtree_count_by_root_branching(list(small_corpus)[:40], sizes=(2, 3))
        # Nodes with larger branching factors root more subtrees on average.
        if 1 in averages and 3 in averages:
            assert averages[3][3] >= averages[1][3]

    def test_count_subtrees_per_node_star(self) -> None:
        tree = ParseTree(build_tree(("R", [f"L{i}" for i in range(5)])), tid=0)
        counts = count_subtrees_per_node(tree, sizes=(2, 3))
        assert counts[5][2] == comb(5, 1)
        assert counts[5][3] == comb(5, 2)


# ----------------------------------------------------------------------
# The kernel against an independent brute-force enumerator
# ----------------------------------------------------------------------
#: Two labels only: twin siblings and equal child texts turn up constantly.
_shapes = st.recursive(
    st.sampled_from("AB").map(lambda label: (label, [])),
    lambda children: st.tuples(st.sampled_from("AB"), st.lists(children, max_size=5)),
    max_leaves=12,
)


def _brute_force(root, mss: int) -> Counter:
    """Every connected node set of at most *mss* nodes, keyed by its top node.

    Sets are grown one adjacent node at a time and canonicalised by the
    textbook recursion (stable sort of the rendered children), sharing
    nothing with the kernel's bottom-up composition.
    """
    position = {id(node): index for index, node in enumerate(root.preorder())}

    def canonical(node, members):
        children = [canonical(child, members) for child in node.children if id(child) in members]
        children.sort(key=lambda pair: pair[0])
        text = node.label + "".join(f"({child_text})" for child_text, _ in children)
        return text, [position[id(node)]] + [at for _, order in children for at in order]

    found: Counter = Counter()
    for top in root.preorder():
        grown = {frozenset([id(top)])}
        frontier = [(frozenset([id(top)]), [top])]
        while frontier:
            members, nodes = frontier.pop()
            text, order = canonical(top, members)
            found[(text.encode("utf-8"), tuple(order))] += 1
            if len(members) == mss:
                continue
            for node in nodes:
                for child in node.children:
                    bigger = members | {id(child)}
                    if id(child) not in members and bigger not in grown:
                        grown.add(bigger)
                        frontier.append((bigger, nodes + [child]))
    return found


@settings(max_examples=150, deadline=None)
@given(_shapes, st.integers(min_value=1, max_value=5))
def test_kernel_matches_brute_force(shape, mss: int) -> None:
    tree = ParseTree(build_tree(shape), tid=3)
    expected = _brute_force(tree.root, mss)
    nodes, extracted = extract_subtrees(tree, mss)
    assert nodes == list(tree.root.preorder())
    codes = number_tree(tree)
    got: Counter = Counter()
    for node, found in zip(nodes, extracted):
        for text, occurrence, size in found:
            assert size == len(occurrence)
            assert occurrence[0][0] - 1 == nodes.index(node)  # rooted where it is listed
            for pre, post, level in occurrence:
                code = codes[id(nodes[pre - 1])]
                assert (pre, post, level) == (code.pre, code.post, code.level)
            got[(text.encode("utf-8"), tuple(pre - 1 for pre, _, _ in occurrence))] += 1
    assert got == expected  # same key multiset, same canonical node order
    # The public iterator is a view of the same occurrences.
    viewed = Counter(
        (key, tuple(code.pre - 1 for code in occurrence.codes))
        for key, occurrence in enumerate_key_occurrences(tree, mss)
    )
    assert viewed == expected


def _reference_postings(coding: str, occurrences) -> list:
    """The per-``Occurrence`` conversions the codings had before the kernel."""
    if coding == "filter":
        return [FilterPosting(tid) for tid in sorted({occ.tid for occ in occurrences})]
    if coding == "root-split":
        roots = {(occ.tid, occ.root.pre, occ.root.post, occ.root.level) for occ in occurrences}
        return [RootPosting(*record) for record in sorted(roots)]
    postings = set()
    for occ in occurrences:
        pres = sorted(code.pre for code in occ.codes)
        order_of = {pre: rank + 1 for rank, pre in enumerate(pres)}
        nodes = tuple(NodeCode(c.pre, c.post, c.level, order_of[c.pre]) for c in occ.codes)
        postings.add(SubtreePosting(occ.tid, nodes))
    return sorted(postings)


@settings(max_examples=60, deadline=None)
@given(st.lists(_shapes, min_size=1, max_size=3), st.integers(min_value=1, max_value=5))
def test_posting_lists_match_the_per_occurrence_reference(shapes, mss: int) -> None:
    trees = [ParseTree(build_tree(shape), tid=5 + 2 * at) for at, shape in enumerate(shapes)]
    per_key: dict = {}
    for tree in trees:
        for key, occurrence in enumerate_key_occurrences(tree, mss):
            per_key.setdefault(key, []).append(occurrence)
    for name in ("filter", "root-split", "subtree-interval"):
        coding = get_coding(name)
        posting_lists, tree_count = accumulate_posting_lists(trees, mss, coding)
        assert tree_count == len(trees)
        assert posting_lists == {
            key: _reference_postings(name, occurrences) for key, occurrences in per_key.items()
        }
        # The record-object entry point agrees with the flat one.
        for key, occurrences in per_key.items():
            assert coding.postings_from_occurrences(occurrences) == posting_lists[key]
