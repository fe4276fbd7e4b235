"""Unit and property tests for the three coding schemes."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.coding import (
    CodingScheme,
    FilterBasedCoding,
    FilterPosting,
    PostingColumns,
    RootPosting,
    RootSplitCoding,
    SubtreeIntervalCoding,
    get_coding,
)
from repro.coding.base import coding_names
from tests.coding.recordkit import encode_records

#: One embedding of a key: the tree and its nodes' ``(pre, post, level)`` in
#: the key's canonical order, root first.
Occurrence = tuple


def _occurrence(tid: int, codes: list[tuple[int, int, int]]) -> Occurrence:
    return (tid, tuple(codes))


def _postings(coding: CodingScheme, occurrences: list[Occurrence]) -> list:
    """The records *coding* stores for one key given as embeddings of any
    trees, read back through ``columns``."""
    return list(coding.columns(_body(coding, occurrences)))


def _body(coding: CodingScheme, occurrences: list[Occurrence]) -> list:
    """The body *coding* builds for one key given as embeddings of any trees:
    ``rows`` over what an extraction of those trees would hand it (one
    anonymous key)."""
    by_tid: dict = {}
    for tid, codes in occurrences:
        by_tid.setdefault(tid, set()).add(codes)
    body: list = []
    for tid, embeddings in sorted(by_tid.items()):
        if coding.roots_only:
            roots = sorted({codes[0] for codes in embeddings})
            extraction = roots, [("",)] * len(roots)
        else:
            extraction = None, [[("", codes, len(codes)) for codes in embeddings]]
        for _, row in coding.rows(tid, *extraction):
            body += row
    return body


OCCURRENCES = [
    _occurrence(3, [(2, 5, 1), (3, 2, 2)]),
    _occurrence(3, [(2, 5, 1), (4, 3, 2)]),     # same root, different child
    _occurrence(7, [(10, 12, 4), (11, 10, 5)]),
    _occurrence(7, [(10, 12, 4), (11, 10, 5)]),  # exact duplicate embedding
]


class TestRegistry:
    def test_known_names(self) -> None:
        assert set(coding_names()) == {"filter", "root-split", "subtree-interval"}

    @pytest.mark.parametrize("name", ["filter", "root-split", "subtree-interval"])
    def test_get_coding(self, name: str) -> None:
        assert get_coding(name).name == name

    def test_unknown_name_rejected(self) -> None:
        with pytest.raises(ValueError):
            get_coding("mystery")


class TestFilterBasedCoding:
    def test_postings_are_unique_sorted_tids(self) -> None:
        postings = _postings(FilterBasedCoding(), OCCURRENCES)
        assert postings == [FilterPosting(3), FilterPosting(7)]

    def test_round_trip(self) -> None:
        coding = FilterBasedCoding()
        postings = _postings(coding, OCCURRENCES)
        assert coding.decode_postings(encode_records(coding, postings)) == postings

    def test_one_row_a_tree_however_many_roots(self) -> None:
        rows = FilterBasedCoding().rows(9, [(1, 3, 0), (2, 1, 1), (3, 2, 1)], [["A", "A(B)"], ["B"], ["B"]])
        assert sorted(rows) == [("A", (9,)), ("A(B)", (9,)), ("B", (9,))]


class TestRootSplitCoding:
    def test_dedupes_same_root(self) -> None:
        postings = _postings(RootSplitCoding(), OCCURRENCES)
        # Occurrences 1 and 2 share (tid=3, root pre=2); 3 and 4 are duplicates.
        assert postings == [RootPosting(3, 2, 5, 1), RootPosting(7, 10, 12, 4)]

    def test_round_trip(self) -> None:
        coding = RootSplitCoding()
        postings = _postings(coding, OCCURRENCES)
        assert coding.decode_postings(encode_records(coding, postings)) == postings

    def test_posting_is_smaller_than_subtree_interval(self) -> None:
        root_split = RootSplitCoding()
        interval = SubtreeIntervalCoding()
        rs_bytes = encode_records(root_split, _postings(root_split, OCCURRENCES))
        si_bytes = encode_records(interval, _postings(interval, OCCURRENCES))
        assert len(rs_bytes) < len(si_bytes)


class TestSubtreeIntervalCoding:
    def test_keeps_distinct_embeddings(self) -> None:
        postings = _postings(SubtreeIntervalCoding(), OCCURRENCES)
        assert len(postings) == 3  # only the exact duplicate collapses

    def test_order_values_are_preorder_ranks(self) -> None:
        # Codes listed in canonical order that differs from pre order.
        occurrence = _occurrence(1, [(5, 9, 2), (8, 7, 3), (6, 6, 3)])
        posting = _postings(SubtreeIntervalCoding(), [occurrence])[0]
        orders = [node.order for node in posting.nodes]
        assert orders == [1, 3, 2]

    def test_round_trip(self) -> None:
        coding = SubtreeIntervalCoding()
        postings = _postings(coding, OCCURRENCES)
        assert coding.decode_postings(encode_records(coding, postings)) == postings

    def test_posting_properties(self) -> None:
        posting = _postings(SubtreeIntervalCoding(), [OCCURRENCES[0]])[0]
        assert posting.size == 2
        assert posting.root.pre == 2


# ----------------------------------------------------------------------
# Property tests: encode/decode are inverse for arbitrary occurrences.
# ----------------------------------------------------------------------
# Values straddle the varint width boundaries (128, 16 384) so decoded bodies
# are all-single-byte (the zero-copy ``bytes`` columns), all-multi-byte, or a
# mix; tids make gaps of either width.
_number = st.one_of(
    st.integers(min_value=1, max_value=127),
    st.integers(min_value=128, max_value=16_383),
    st.integers(min_value=16_384, max_value=3_000_000),
)
_tid = st.one_of(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=1_000_000))


def _occurrences(min_size: int = 0) -> st.SearchStrategy[list[Occurrence]]:
    """Occurrences of *one* key: every embedding has the key's node count."""

    def of_width(width: int) -> st.SearchStrategy[list[Occurrence]]:
        code = st.tuples(_number, _number, st.integers(min_value=0, max_value=200))
        codes = st.lists(code, min_size=width, max_size=width, unique_by=lambda c: c[0])
        return st.lists(st.builds(_occurrence, tid=_tid, codes=codes), min_size=min_size, max_size=20)

    return st.integers(min_value=1, max_value=6).flatmap(of_width)


CODINGS = ["filter", "root-split", "subtree-interval"]


@pytest.mark.parametrize("name", CODINGS)
@given(occurrences=_occurrences())
def test_round_trip_property(name: str, occurrences: list[Occurrence]) -> None:
    coding = get_coding(name)
    postings = _postings(coding, occurrences)
    decoded = coding.decode_postings(encode_records(coding, postings))
    assert isinstance(decoded, PostingColumns)
    assert decoded == postings and postings == decoded
    assert len(decoded) == len(postings) and list(decoded) == postings
    # Posting lists are sorted by tid, which downstream merge joins rely on.
    tids = [posting.tid for posting in postings]
    assert tids == sorted(tids) == list(decoded.tids)


@pytest.mark.parametrize("name", CODINGS)
@given(occurrences=_occurrences(), data=st.data())
def test_a_compaction_cuts_bodies_not_columns(name: str, occurrences: list[Occurrence], data) -> None:
    """``decode_body`` undoes ``encode_body`` -- a wide first tid included --
    and ``cut_rows`` drops exactly the dead trees' rows, handing the body
    back itself when it holds none of them."""
    coding = get_coding(name)
    body = _body(coding, occurrences)
    assert coding.decode_body(coding.encode_body(body)) == body
    tids = sorted({tid for tid, _ in occurrences})
    dead = data.draw(st.sets(st.sampled_from(tids) | _tid, max_size=4) if tids else st.just(set()))
    kept = coding.cut_rows(body, dead)
    assert list(coding.columns(kept)) == [row for row in coding.columns(body) if row.tid not in dead]
    assert (kept is body) == dead.isdisjoint(tids)


@pytest.mark.parametrize("name", CODINGS)
@given(occurrences=_occurrences(min_size=1), data=st.data())
def test_columns_are_a_read_only_sequence_of_postings(name, occurrences, data) -> None:
    coding = get_coding(name)
    postings = _postings(coding, occurrences)
    decoded = coding.decode_postings(encode_records(coding, postings))
    index = data.draw(st.integers(min_value=-len(postings), max_value=len(postings) - 1))
    assert decoded[index] == postings[index]
    assert decoded[index:] == postings[index:]
    assert postings[index] in decoded
    with pytest.raises(IndexError):
        decoded[len(postings)]
    # Columns built from the plain records are the same columns.
    rebuilt = PostingColumns.from_postings(postings)
    assert rebuilt == decoded
    assert list(rebuilt.tids) == list(decoded.tids)
    assert [[list(column) for column in slot] for slot in rebuilt.slots] == [
        [list(column) for column in slot] for slot in decoded.slots
    ]
    assert PostingColumns.from_postings(decoded) is decoded


@pytest.mark.parametrize("name", CODINGS)
@given(occurrences=_occurrences(min_size=1), data=st.data())
def test_damaged_input_raises_instead_of_answering(name, occurrences, data) -> None:
    coding = get_coding(name)
    postings = _postings(coding, occurrences)
    encoded = encode_records(coding, postings)
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    with pytest.raises(ValueError):
        coding.decode_postings(encoded[:cut])
    with pytest.raises(ValueError):
        coding.decode_postings(encoded + b"\x01")
    with pytest.raises(ValueError):
        coding.decode_postings(encoded[:-1] + bytes([encoded[-1] | 0x80]))


@pytest.mark.parametrize("name", CODINGS)
def test_empty_list_round_trips(name: str) -> None:
    coding = get_coding(name)
    decoded = coding.decode_postings(encode_records(coding, []))
    assert len(decoded) == 0 and decoded == [] and list(decoded) == []
    assert PostingColumns.from_postings([]) == decoded


def test_single_byte_bodies_decode_without_copying_values() -> None:
    coding = RootSplitCoding()
    postings = [RootPosting(3, 2, 5, 1), RootPosting(3, 9, 8, 2), RootPosting(90, 1, 120, 0)]
    decoded = coding.decode_postings(encode_records(coding, postings))
    assert all(isinstance(column, bytes) for column in decoded.slots[0])
    wide = coding.decode_postings(encode_records(coding, postings + [RootPosting(400, 130, 129, 3)]))
    assert wide == postings + [RootPosting(400, 130, 129, 3)]
    assert not isinstance(wide.slots[0][0], bytes)


def test_subtree_interval_rejects_mixed_node_counts() -> None:
    coding = SubtreeIntervalCoding()
    narrow = _postings(coding, [_occurrence(1, [(1, 5, 0)])])
    wide = _postings(coding, [_occurrence(2, [(1, 5, 0), (2, 1, 1)])])
    with pytest.raises(ValueError):
        PostingColumns.from_postings(narrow + wide)
    # Hand-assembled bytes claiming two records of different widths.
    forged = b"\x02" + encode_records(coding, narrow)[1:] + encode_records(coding, wide)[1:]
    with pytest.raises(ValueError):
        coding.decode_postings(forged)
