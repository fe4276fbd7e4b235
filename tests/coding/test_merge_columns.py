"""``merge_columns``: the lists of tid-disjoint sources as one list.

A sharded or live index reads a key by merging what each of its sources
stores for it.  Whatever the parts look like -- tid ranges in order (a live
index) or interleaved (shards), empty parts, columns that came out of the
decoder as ``bytes`` in one part and as a ``list`` in another -- the merged
list holds exactly the parts' rows sorted by tid, a tree's own postings in
the order its source had them.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, strategies as st

from repro.coding import PostingColumns, get_coding
from repro.coding.postings import merge_columns
from tests.coding.recordkit import Row, body_columns, encode_records, rows

CODINGS = ("filter", "root-split", "subtree-interval")


def _records(coding: str, tid: int, count: int, big: bool, nodes: int) -> List[Row]:
    """*count* rows of tree *tid* (one for filter coding, which stores a tree
    once); *big* puts values past one byte, so the decoder hands the column
    out as a list and not as ``bytes``."""
    scale = 300 if big else 1
    if coding == "filter":
        return [(tid,)]
    if coding == "root-split":
        return [(tid, (row + 1) * scale, row + 2, row % 5) for row in range(count)]
    return [
        (tid, nodes, *(
            value for node in range(nodes)
            for value in ((row + node + 1) * scale, row + node + 2, node, node)
        ))
        for row in range(count)
    ]


@st.composite
def _parts(draw):
    """``(coding, per-part row lists)``: every tid in exactly one part."""
    coding = draw(st.sampled_from(CODINGS))
    nodes = draw(st.integers(min_value=1, max_value=3))
    part_count = draw(st.integers(min_value=1, max_value=4))
    tids = sorted(draw(st.sets(st.integers(min_value=0, max_value=400), max_size=12)))
    if draw(st.booleans()):  # ranges follow one another, as in a live index
        cuts = sorted(draw(st.lists(
            st.integers(min_value=0, max_value=len(tids)), min_size=part_count - 1,
            max_size=part_count - 1,
        )))
        owner = [sum(position >= cut for cut in cuts) for position in range(len(tids))]
    else:  # any tid anywhere, as under a partitioner
        owner = [draw(st.integers(min_value=0, max_value=part_count - 1)) for _ in tids]
    parts: List[List[Row]] = [[] for _ in range(part_count)]
    for tid, part in zip(tids, owner):
        parts[part] += _records(
            coding, tid, draw(st.integers(min_value=1, max_value=3)), draw(st.booleans()), nodes
        )
    return coding, parts


@given(_parts(), st.data())
def test_merged_list_is_the_tid_sorted_records(drawn, data) -> None:
    coding_name, parts = drawn
    coding = get_coding(coding_name)
    columns = []
    for records in parts:
        if not records:
            columns.append(data.draw(st.sampled_from([PostingColumns(()), PostingColumns([])])))
        elif data.draw(st.booleans()):  # as stored: bytes columns where the values fit
            columns.append(coding.decode_postings(encode_records(coding, records)))
        else:  # as a delta holds them: lists throughout
            columns.append(body_columns(coding, [value for row in records for value in row]))
    merged = merge_columns(columns)
    expected = sorted((row for records in parts for row in records), key=lambda row: row[0])
    assert rows(merged) == expected  # stable: a tree's postings keep their order
    assert list(merged.tids) == [row[0] for row in expected]
    for column in (c for slot in merged.slots for c in slot):
        assert len(column) == len(expected)
    if expected:  # the round trip: the columns are what the coding stores
        assert coding.decode_postings(encode_records(coding, expected)) == merged


def test_bytes_and_list_columns_concatenate() -> None:
    coding = get_coding("root-split")
    stored = coding.decode_postings(encode_records(coding, [(1, 2, 3, 0)]))
    assert isinstance(stored.slots[0][0], bytes)  # the trap: bytes + list raises
    delta = body_columns(coding, [7, 300, 4, 1])
    assert rows(merge_columns([stored, delta])) == [(1, 2, 3, 0), (7, 300, 4, 1)]
    assert rows(merge_columns([delta, stored])) == [(1, 2, 3, 0), (7, 300, 4, 1)]


@pytest.mark.parametrize("empty", [PostingColumns(()), PostingColumns([])])
def test_single_populated_source_keeps_its_columns(empty) -> None:
    coding = get_coding("root-split")
    columns = coding.decode_postings(
        encode_records(coding, [(3, 1, 2, 0), (9, 4, 5, 1)])
    )
    assert merge_columns([empty, columns, empty]) is columns
    assert merge_columns([columns]) is columns
    assert len(merge_columns([empty, empty])) == 0 and len(merge_columns([])) == 0
