"""Unit tests for subtree enumeration (index key extraction)."""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, count
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.coding.base import get_coding
from repro.core.enumeration import (
    extract_root_texts,
    extract_subtrees,
    number,
    subtree_count_by_root_branching,
)
from repro.core.index import accumulate_posting_lists, encode_posting_lists, numbered, tree_rows
from repro.trees.node import Node, ParseTree, build_tree
from tests.coding.recordkit import encode_body, rows


def _occurrences(tree: ParseTree, mss: int):
    """``(key, (pre, post, level) of the nodes in canonical order)`` per extracted subtree."""
    for found in extract_subtrees(number(tree), mss):
        for text, codes, _ in found:
            yield text.encode("utf-8"), codes


def _keys(tree: ParseTree, mss: int) -> Counter:
    return Counter(key for key, _ in _occurrences(tree, mss))


def _sizes(tree: ParseTree, mss: int) -> list:
    return [size for found in extract_subtrees(number(tree), mss) for _, _, size in found]


class TestExtractSubtrees:
    def test_mss_one_yields_every_node(self, figure4_tree: ParseTree) -> None:
        assert _sizes(figure4_tree, 1) == [1] * figure4_tree.size()

    def test_size_two_subtrees_are_edges(self, figure4_tree: ParseTree) -> None:
        # One subtree of size 2 per edge of the tree.
        assert _sizes(figure4_tree, 2).count(2) == figure4_tree.size() - 1

    @pytest.mark.parametrize("extract", [extract_subtrees, extract_root_texts])
    def test_invalid_mss_rejected(self, figure4_tree: ParseTree, extract) -> None:
        with pytest.raises(ValueError):
            extract(number(figure4_tree), 0)

    def test_unique_keys_of_size_two(self, figure4_tree: ParseTree) -> None:
        # Tree A(B)(C(A(C)(D))): edges A-B, A-C, C-A, A-C (inner), A-D.
        size_two = {key for key, codes in _occurrences(figure4_tree, 2) if len(codes) == 2}
        assert size_two == {b"A(B)", b"A(C)", b"C(A)", b"A(D)"}

    def test_star_tree_counts_match_binomial(self) -> None:
        # Root with n-1 leaf children has C(n-1, m-1) subtrees of size m.
        tree = ParseTree(build_tree(("R", [f"L{i}" for i in range(6)])), tid=0)
        for size in range(2, 5):
            assert _sizes(tree, size).count(size) == comb(6, size - 1)

    def test_chain_tree_counts(self) -> None:
        # A unary chain of height n has n - m + 1 subtrees of size m.
        tree = ParseTree(build_tree(("A", [("B", [("C", [("D", [("E", [])])])])])), tid=0)
        for size in range(1, 6):
            assert _sizes(tree, 5).count(size) == 5 - size + 1

    def test_all_subtrees_are_connected_and_rooted(self, paper_tree: ParseTree) -> None:
        nodes = list(paper_tree.preorder())
        for found in extract_subtrees(number(paper_tree), 3):
            for _, codes, _ in found:
                members = [nodes[pre - 1] for pre, _, _ in codes]
                # Every node but the root has its data-tree parent in the subtree.
                assert all(any(node.parent is other for other in members) for node in members[1:])


class TestKeyOccurrences:
    def test_occurrence_codes_are_canonically_ordered(self, paper_tree: ParseTree) -> None:
        from repro.core.keys import decode_key

        for key, codes in _occurrences(paper_tree, 3):
            assert len(codes) == decode_key(key).size
            (root_pre, root_post, root_level), rest = codes[0], codes[1:]
            # The root is canonical position 0 and is the shallowest node.
            assert root_level == min(level for _, _, level in codes)
            # The root contains every other node of the occurrence.
            assert all(root_pre < pre and root_post > post for pre, post, _ in rest)

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


def _interval_codes(root: Node) -> dict:
    """``id(node) -> (pre, post, level)`` by recursion: a DFS's visit rank,
    its unwind rank and the depth, each counted from the root."""
    codes: dict = {}
    pres, posts = count(1), count(1)

    def visit(node: Node, level: int) -> None:
        pre = next(pres)
        for child in node.children:
            visit(child, level + 1)
        codes[id(node)] = (pre, next(posts), level)

    visit(root, 0)
    return codes


@settings(max_examples=150, deadline=None)
@given(_shapes, st.integers(min_value=1, max_value=5))
def test_kernel_matches_brute_force(shape, mss: int) -> None:
    tree = ParseTree(build_tree(shape), tid=3)
    expected = _brute_force(tree.root, mss)
    nodes = list(tree.root.preorder())
    labels, _, children = numbering = number(tree)
    assert labels == [node.label for node in nodes]
    assert children == [[nodes.index(child) for child in node.children] for node in nodes]
    extracted = extract_subtrees(numbering, mss)
    codes = _interval_codes(tree.root)
    got: Counter = Counter()
    for node, found in zip(nodes, extracted):
        for text, occurrence, size in found:
            assert size == len(occurrence)
            assert occurrence[0][0] - 1 == nodes.index(node)  # rooted where it is listed
            for pre, post, level in occurrence:
                assert (pre, post, level) == codes[id(nodes[pre - 1])]
            got[(text.encode("utf-8"), tuple(pre - 1 for pre, _, _ in occurrence))] += 1
    assert got == expected  # same key multiset, same canonical node order


@settings(max_examples=150, deadline=None)
@given(_shapes, st.integers(min_value=1, max_value=5))
def test_root_texts_are_the_kernels_keys_by_root(shape, mss: int) -> None:
    """The root-only extraction is ``{(text, root)}`` of the full one: the
    same numbering, every key a node roots exactly once, its size with it."""
    tree = ParseTree(build_tree(shape), tid=3)
    numbering = number(tree)
    extracted = extract_subtrees(numbering, mss)
    texts = extract_root_texts(numbering, mss)
    numbered_codes = numbering[1]
    assert numbered_codes == [found[0][1][0] for found in extracted]  # the size-1 subtree's only code
    assert [pre for pre, _, _ in numbered_codes] == list(range(1, len(extracted) + 1))
    for found, rooted in zip(extracted, texts):
        assert rooted == {text: size for text, _, size in found}
    # Roots ascend per key: a tree's rows are born in stored order.
    roots_of: dict = {}
    for (pre, _, _), rooted in zip(numbered_codes, texts):
        for text in rooted:
            roots_of.setdefault(text, []).append(pre)
    assert all(roots == sorted(set(roots)) for roots in roots_of.values())
    assert roots_of == {
        text: sorted({codes[0][0] for found in extracted for t, codes, _ in found if t == text})
        for text in roots_of
    }


def _reference_postings(coding: str, occurrences) -> list:
    """The rows of ``(tid, codes)`` embeddings, converted one embedding at a time."""
    if coding == "filter":
        return [(tid,) for tid in sorted({tid for tid, _ in occurrences})]
    if coding == "root-split":
        return [(tid, *root) for tid, root in sorted({(tid, codes[0]) for tid, codes in occurrences})]
    postings = set()
    for tid, codes in occurrences:
        pres = sorted(pre for pre, _, _ in codes)
        order_of = {pre: rank + 1 for rank, pre in enumerate(pres)}
        postings.add((tid, len(codes), *(value for code in codes for value in (*code, order_of[code[0]]))))
    return sorted(postings)


@settings(max_examples=60, deadline=None)
@given(st.lists(_shapes, min_size=1, max_size=3), st.integers(min_value=1, max_value=5))
def test_posting_lists_match_the_per_occurrence_reference(shapes, mss: int) -> None:
    trees = [ParseTree(build_tree(shape), tid=5 + 2 * at) for at, shape in enumerate(shapes)]
    per_key: dict = {}
    for tree in trees:
        for key, codes in _occurrences(tree, mss):
            per_key.setdefault(key, []).append((tree.tid, codes))
    for name in ("filter", "root-split", "subtree-interval"):
        coding = get_coding(name)
        lists, tree_count = accumulate_posting_lists(numbered(trees), mss, coding)
        assert tree_count == len(trees)
        assert {key: rows(coding.decode_postings(stored)) for key, stored in encode_posting_lists(lists)} == {
            key: _reference_postings(name, occurrences) for key, occurrences in per_key.items()
        }


def _caterpillar(length: int) -> tuple:
    """A spine of *length* nodes, each with a leaf: ``2 * length + 1`` nodes."""
    spec: tuple = ("B", [])
    for at in range(length):
        spec = ("AB"[at % 2], [("B", []), spec])
    return spec


#: 141 nodes: pre and post numbers past 127 take two varint bytes.
_LONG = _caterpillar(70)


def _encoded_from_int_rows(trees, mss: int, coding) -> list:
    """Each key's rows as ints end to end, then encoded whole
    (``recordkit.encode_body``): the reference the stored form is held to."""
    bodies: dict = {}
    for tid, numbering in numbered(trees):
        for text, row in tree_rows(tid, numbering, mss, coding):
            bodies.setdefault(text.encode("utf-8"), []).extend(row)
    return [(key, encode_body(coding, body)) for key, body in sorted(bodies.items())]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_shapes, min_size=1, max_size=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=300),
    st.lists(st.integers(min_value=1, max_value=300), min_size=3, max_size=3),
    st.integers(min_value=1, max_value=5),
)
@example(shapes=[("A", [("B", [])])], at=1, first=200, gaps=[130, 1, 1], mss=5)
def test_lists_are_built_in_their_stored_form(shapes, at: int, first: int, gaps: list, mss: int) -> None:
    """The accumulator's bytes are ``encode_body`` of the same rows on every
    coding -- a tree of more than 127 nodes, tid gaps and a first tid of
    two varint bytes (a live delta's tids) included -- and each list is
    dropped as it is written."""
    specs = [*shapes]
    specs.insert(min(at, len(specs)), _LONG)
    tids = accumulate([first, *gaps])
    trees = [ParseTree(build_tree(spec), tid=tid) for spec, tid in zip(specs, tids)]
    for name in ("filter", "root-split", "subtree-interval"):
        coding = get_coding(name)
        lists, _ = accumulate_posting_lists(numbered(trees), mss, coding)
        assert list(encode_posting_lists(lists)) == _encoded_from_int_rows(trees, mss, coding)
        assert not lists
