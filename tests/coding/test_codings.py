"""Unit and property tests for the three coding schemes."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.coding import (
    CodingScheme,
    FilterBasedCoding,
    PostingColumns,
    RootSplitCoding,
    SubtreeIntervalCoding,
    get_coding,
)
from repro.coding.base import StoredList, coding_names, row_tail
from tests.coding.recordkit import body_columns, encode_body, encode_records, rows

#: One embedding of a key: the tree and its nodes' ``(pre, post, level)`` in
#: the key's canonical order, root first.
Occurrence = tuple


def _occurrence(tid: int, codes: list[tuple[int, int, int]]) -> Occurrence:
    return (tid, tuple(codes))


def _postings(coding: CodingScheme, occurrences: list[Occurrence]) -> list:
    """The rows *coding* stores for one key given as embeddings of any
    trees, read back through ``columns``."""
    return rows(body_columns(coding, _body(coding, occurrences)))


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
        assert postings == [(3,), (7,)]

    def test_round_trip(self) -> None:
        coding = FilterBasedCoding()
        postings = _postings(coding, OCCURRENCES)
        assert rows(coding.decode_postings(encode_records(coding, postings))) == postings

    def test_one_row_a_tree_however_many_roots(self) -> None:
        keyed = FilterBasedCoding().rows(9, [(1, 3, 0), (2, 1, 1), (3, 2, 1)], [["A", "A(B)"], ["B"], ["B"]])
        assert sorted(keyed) == [("A", (9,)), ("A(B)", (9,)), ("B", (9,))]


class TestRootSplitCoding:
    def test_dedupes_same_root(self) -> None:
        postings = _postings(RootSplitCoding(), OCCURRENCES)
        # Occurrences 1 and 2 share (tid=3, root pre=2); 3 and 4 are duplicates.
        assert postings == [(3, 2, 5, 1), (7, 10, 12, 4)]

    def test_round_trip(self) -> None:
        coding = RootSplitCoding()
        postings = _postings(coding, OCCURRENCES)
        assert rows(coding.decode_postings(encode_records(coding, postings))) == postings

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
        assert posting[5::4] == (1, 3, 2)  # (tid, n, (pre, post, level, order) * n)

    def test_round_trip(self) -> None:
        coding = SubtreeIntervalCoding()
        postings = _postings(coding, OCCURRENCES)
        assert rows(coding.decode_postings(encode_records(coding, postings))) == postings

    def test_a_row_holds_the_node_count_then_the_root_first(self) -> None:
        posting = _postings(SubtreeIntervalCoding(), [OCCURRENCES[0]])[0]
        assert posting[1] == 2
        assert posting[2] == 2  # the root's pre


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


def _occurrences(
    min_size: int = 0, number: st.SearchStrategy[int] = _number, tid: st.SearchStrategy[int] = _tid
) -> st.SearchStrategy[list[Occurrence]]:
    """Occurrences of *one* key: every embedding has the key's node count."""

    def of_width(width: int) -> st.SearchStrategy[list[Occurrence]]:
        code = st.tuples(number, number, st.integers(min_value=0, max_value=200))
        codes = st.lists(code, min_size=width, max_size=width, unique_by=lambda c: c[0])
        return st.lists(st.builds(_occurrence, tid=tid, codes=codes), min_size=min_size, max_size=20)

    return st.integers(min_value=1, max_value=6).flatmap(of_width)


CODINGS = ["filter", "root-split", "subtree-interval"]


@pytest.mark.parametrize("name", CODINGS)
@given(occurrences=_occurrences())
def test_round_trip_property(name: str, occurrences: list[Occurrence]) -> None:
    coding = get_coding(name)
    body = _body(coding, occurrences)
    postings = rows(body_columns(coding, body))
    decoded = coding.decode_postings(encode_records(coding, postings))
    assert isinstance(decoded, PostingColumns)
    assert len(decoded) == len(postings) and rows(decoded) == postings
    if body:
        assert decoded == body_columns(coding, body)
    # Posting lists are sorted by tid, which downstream merge joins rely on.
    tids = [posting[0] for posting in postings]
    assert tids == sorted(tids) == list(decoded.tids)


@pytest.mark.parametrize("name", CODINGS)
@given(occurrences=_occurrences(), data=st.data())
@example(occurrences=[_occurrence(tid, [(2, 1, 0)]) for tid in (0, 100, 200)], data=None)
def test_a_compaction_cuts_bodies_not_columns(name: str, occurrences: list[Occurrence], data) -> None:
    """``cut`` drops exactly the dead trees' rows -- a wide first tid
    included -- and writes what the reference writer writes of the rows
    left, byte for byte, handing the stored list back itself when it holds
    none of them and ``None`` for none left.  The example cuts tree 100:
    tree 200's gap, stored in one byte, is re-based to 200, two bytes."""
    coding = get_coding(name)
    body = _body(coding, occurrences)
    stored = encode_body(coding, body)
    tids = sorted({tid for tid, _ in occurrences})
    if data is None:
        dead = {100}
    else:
        dead = data.draw(st.sets(st.sampled_from(tids) | _tid, max_size=4) if tids else st.just(set()))
    kept = coding.cut(stored, dead)
    survivors = [row for row in rows(body_columns(coding, body)) if row[0] not in dead]
    assert (kept is None) == (not survivors and not dead.isdisjoint(tids))
    assert ([] if kept is None else rows(coding.decode_postings(kept))) == survivors
    assert (kept is stored) == dead.isdisjoint(tids)
    if kept is not None:
        assert kept == encode_records(coding, survivors)


def _varint_of(size: int) -> st.SearchStrategy[int]:
    """A value whose varint is *size* bytes long (1 to 10)."""
    return st.integers(min_value=0 if size == 1 else 128 ** (size - 1), max_value=128 ** size - 1)


def _values(sizes: st.SearchStrategy[int]) -> st.SearchStrategy[int]:
    return sizes.flatmap(_varint_of)


@st.composite
def _appended_rows(draw, name: str) -> list[tuple[int, ...]]:
    """Rows of one key under coding *name*: the first tid up to 2**40, each
    later one a gap of 1 to 10 bytes after the one before, and every value
    after a tid 1 to *widest* bytes."""
    base = draw(st.integers(min_value=0, max_value=2**40))
    widest = draw(st.integers(min_value=1, max_value=10))
    value = _values(st.integers(min_value=1, max_value=widest))
    nodes = draw(st.integers(min_value=1, max_value=3))
    tail = {
        "filter": st.just(()),
        "root-split": st.tuples(value, value, value),
        "subtree-interval": st.lists(value, min_size=4 * nodes, max_size=4 * nodes).map(
            lambda values: (nodes, *values)
        ),
    }[name]
    gaps = draw(st.lists(_values(st.integers(min_value=1, max_value=10)), min_size=0, max_size=7))
    tids = [base]
    for gap in gaps:
        tids.append(tids[-1] + gap)
    return [(tid, *draw(tail)) for tid in tids]


@pytest.mark.parametrize("name", CODINGS)
@given(data=st.data())
@example(data=None)
def test_the_first_value_apart_reader_decodes_every_suffix(name: str, data) -> None:
    """``decode_rows`` -- the reader of ``cut`` and of a delta's lookup --
    decodes a stored list from any row boundary on, given the tid of the row
    before, to the rows written there; and its columns are ``bytes`` when
    the first value it reads is the only wide one."""
    coding = get_coding(name)
    if data is None:  # a wide first tid, every value after it one byte
        listed = [(2**20, 1, 7, 2, 9, 0), (2**20 + 5, 1, 6, 1, 4, 0)]
        listed = [row[:coding.width(row)] for row in listed]
    else:
        listed = data.draw(_appended_rows(name))
    stored, boundaries = StoredList(), []
    for row in listed:
        boundaries.append(len(stored))
        stored.append(row[0], row_tail(row))
    assert stored.encoded() == encode_records(coding, listed)
    for at, offset in enumerate(boundaries):
        before = listed[at - 1][0] if at else 0
        body, width, tids = coding.decode_rows(stored, offset, before)  # a bytearray, as a delta reads it
        decoded = PostingColumns.from_body(body, width, tids)
        assert rows(decoded) == rows(body_columns(coding, [value for row in listed[at:] for value in row]))
        gaps = [listed[at][0] - before, *(b[0] - a[0] for a, b in zip(listed[at:], listed[at + 1:]))]
        after_first = [value for row, gap in zip(listed[at:], gaps) for value in (gap, *row[1:])][1:]
        if all(value < 0x80 for value in after_first):
            columns = [column for slot in decoded.slots for column in slot] + list(decoded.orders or ())
            assert type(body) is bytes and all(type(column) is bytes for column in columns)


# ----------------------------------------------------------------------
# Equality: two lists are equal when their columns hold the same values.
# ----------------------------------------------------------------------
_byte = st.integers(min_value=0, max_value=255)


@pytest.mark.parametrize("name", CODINGS)
@given(occurrences=_occurrences(min_size=1, number=_byte, tid=_byte))
def test_a_bytes_column_equals_a_list_column_of_the_same_values(name, occurrences) -> None:
    """A stored list decodes to ``bytes`` columns where its values fit one
    byte and a list held in memory has ``list`` columns: the same postings
    are the same list either way."""
    coding = get_coding(name)
    body = _body(coding, occurrences)
    listed, packed = body_columns(coding, body), body_columns(coding, bytes(body))
    assert type(listed.tids) is list and type(packed.tids) is bytes
    assert listed == packed and packed == listed
    changed = list(body)
    changed[-1] ^= 1  # a level, an order value or (filter coding) a tid
    assert body_columns(coding, changed) != packed and packed != body_columns(coding, changed)


@given(
    tids=st.lists(st.integers(min_value=0, max_value=1_000), min_size=1, max_size=12).map(sorted),
    code=st.tuples(_byte, _byte, _byte),
)
def test_a_root_split_list_never_equals_another_codings_list_of_the_same_tids(tids, code) -> None:
    root_split = body_columns(RootSplitCoding(), [value for tid in tids for value in (tid, *code)])
    filtered = body_columns(FilterBasedCoding(), tids)
    one_node = body_columns(SubtreeIntervalCoding(), [value for tid in tids for value in (tid, 1, *code, 1)])
    assert list(root_split.tids) == list(filtered.tids) == list(one_node.tids) == tids
    assert root_split.slots == one_node.slots  # the same node codes, but one also has order values
    for other in (filtered, one_node):
        assert root_split != other and other != root_split


#: One list of two postings per coding, as a body, and the first row's
#: positions whose value a change must make a different list: every stored
#: value but subtree-interval's node count, which fixes the row's shape.
_TWO_POSTINGS = {
    "filter": [3, 7],
    "root-split": [3, 2, 5, 1, 7, 10, 12, 4],
    "subtree-interval": [3, 2, 2, 5, 1, 1, 3, 2, 2, 2, 7, 2, 10, 12, 4, 1, 11, 10, 5, 2],
}
_FIELDS = {
    "filter": {0: "tid"},
    "root-split": {0: "tid", 1: "pre", 2: "post", 3: "level"},
    "subtree-interval": {
        0: "tid", 2: "root-pre", 3: "root-post", 4: "root-level", 5: "root-order",
        6: "child-pre", 7: "child-post", 8: "child-level", 9: "child-order",
    },
}


@pytest.mark.parametrize(
    "name, position",
    [(name, position) for name, fields in _FIELDS.items() for position in fields],
    ids=[f"{name}-{field}" for name, fields in _FIELDS.items() for field in fields.values()],
)
def test_every_column_takes_part_in_equality(name: str, position: int) -> None:
    coding = get_coding(name)
    body = _TWO_POSTINGS[name]
    changed = list(body)
    changed[position] += 1
    original = body_columns(coding, bytes(body))
    assert body_columns(coding, list(body)) == original
    assert body_columns(coding, changed) != original and original != body_columns(coding, changed)
    assert body_columns(coding, bytes(changed)) != original


@pytest.mark.parametrize("name", CODINGS)
def test_from_postings_passes_a_decoded_list_through(name: str) -> None:
    coding = get_coding(name)
    decoded = coding.decode_postings(encode_body(coding, _TWO_POSTINGS[name]))
    assert PostingColumns.from_postings(decoded) is decoded


@pytest.mark.parametrize("name", CODINGS)
def test_a_list_cut_to_nothing_equals_the_empty_list(name: str) -> None:
    """A key whose every tree was deleted reads the same as a key the index
    lacks, whatever slots the coding gave the list before."""
    emptied = body_columns(get_coding(name), _TWO_POSTINGS[name]).without_tids({3, 7})
    assert len(emptied) == 0
    assert emptied == PostingColumns.from_postings([]) == body_columns(get_coding(name), [])


def test_from_postings_takes_nothing_but_columns_or_the_empty_list() -> None:
    with pytest.raises(TypeError):
        PostingColumns.from_postings([(3,)])


@pytest.mark.parametrize("name", CODINGS)
@given(occurrences=_occurrences(), data=st.data())
def test_cutting_columns_agrees_with_cutting_the_body(name: str, occurrences: list[Occurrence], data) -> None:
    """``without_tids`` -- what a service or a segment with deletes does to a
    decoded list -- keeps the list a compaction's ``cut`` would have
    stored, and hands the list back itself when it holds no dead tree."""
    coding = get_coding(name)
    body = _body(coding, occurrences)
    columns = body_columns(coding, body)
    tids = sorted({tid for tid, _ in occurrences})
    dead = data.draw(st.sets(st.sampled_from(tids) | _tid, max_size=4) if tids else st.just(set()))
    cut = columns.without_tids(dead)
    kept = coding.cut(encode_body(coding, body), dead)
    assert cut == (PostingColumns(()) if kept is None else coding.decode_postings(kept))
    assert rows(cut) == [row for row in rows(columns) if row[0] not in dead]
    assert (cut is columns) == dead.isdisjoint(tids)


@pytest.mark.parametrize("name", CODINGS)
@given(occurrences=_occurrences(min_size=1), data=st.data())
def test_damaged_input_raises_instead_of_answering(name, occurrences, data) -> None:
    coding = get_coding(name)
    postings = _postings(coding, occurrences)
    encoded = encode_records(coding, postings)
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    for damaged in (encoded[:cut], encoded + b"\x01", encoded[:-1] + bytes([encoded[-1] | 0x80])):
        with pytest.raises(ValueError):
            coding.decode_postings(damaged)
        with pytest.raises(ValueError):  # a compaction refuses it too, whatever it cuts
            coding.cut(damaged, {0})


@pytest.mark.parametrize("name", CODINGS)
def test_empty_list_round_trips(name: str) -> None:
    coding = get_coding(name)
    decoded = coding.decode_postings(encode_records(coding, []))
    assert len(decoded) == 0 and rows(decoded) == []
    assert len(PostingColumns.from_postings([])) == 0


def test_single_byte_bodies_decode_without_copying_values() -> None:
    coding = RootSplitCoding()
    postings = [(3, 2, 5, 1), (3, 9, 8, 2), (90, 1, 120, 0)]
    decoded = coding.decode_postings(encode_records(coding, postings))
    assert all(isinstance(column, bytes) for column in decoded.slots[0])
    wide = coding.decode_postings(encode_records(coding, postings + [(400, 130, 129, 3)]))
    assert rows(wide) == postings + [(400, 130, 129, 3)]
    assert not isinstance(wide.slots[0][0], bytes)


def test_subtree_interval_rejects_mixed_node_counts() -> None:
    coding = SubtreeIntervalCoding()
    narrow = _postings(coding, [_occurrence(1, [(1, 5, 0)])])
    wide = _postings(coding, [_occurrence(2, [(1, 5, 0), (2, 1, 1)])])
    # Hand-assembled bytes claiming two records of different widths.
    forged = b"\x02" + encode_records(coding, narrow)[1:] + encode_records(coding, wide)[1:]
    with pytest.raises(ValueError):
        coding.decode_postings(forged)
