"""The compiler and the parser against what the code they replaced produced.

``data/covers.json`` and ``data/parse_errors.json`` were written at the
parent of PR 17 by the recursive ``_min_rc_component`` / ``_optimal_component``
/ ``_pad_bins`` chain and the character-loop parser, both since deleted.  The
one-pass compiler and the tokenising parser must reproduce them exactly; the
only covers allowed to differ are those of a query with twin siblings, where
``assign`` now keeps the twins in one subtree.  The ``min-rc/*/pad`` rows were
rewritten when root-split keys began to be filled to ``mss``: each such cover
must also keep the roots, in order, and the join count of the whole-component
padding it replaced (``whole_padded``), every subtree a superset of its
unpadded node set and no smaller than its old one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.guard import timing_bars_enabled
from repro.query.covers import CoverSubtree, is_valid_cover
from repro.query.decompose import compile_query
from repro.query.model import QueryNode, QueryTree
from repro.query.parser import QuerySyntaxError, parse_query

DATA = Path(__file__).parent / "data"
PINNED = json.loads((DATA / "covers.json").read_text())
PARSE_ERRORS = json.loads((DATA / "parse_errors.json").read_text())
#: The sha256 of :func:`_scope_outcomes`, recorded with the tokenising
#: parser the one-split parser replaced.
PARSE_SCOPE = (DATA / "parse_scope.sha256").read_text().strip()

#: The configurations of a twin-sibling query whose cover changed: the NN
#: twins of this template fit one bin at mss 3 and are no longer split.
REPACKED = {
    ("S(NP(DT)(NN)(NN))(VP(VBD)(NP))", config)
    for config in ("min-rc/3/nopad", "optimal/3/pad", "optimal/3/nopad")
}


def _rows(cover):
    return [
        [subtree.root.node_id, subtree.key_bytes().decode("utf-8"), sorted(subtree.node_ids)]
        for subtree in cover.subtrees
    ]


def test_the_pinned_set_is_what_the_docstring_says() -> None:
    assert len(PINNED["wh"]) == 48 and len(PINNED["fb"]) == 60 and len(PINNED["extra"]) >= 10
    assert set(PINNED["covers"]) == set(PINNED["wh"] + PINNED["fb"] + PINNED["extra"])
    assert all(len(rows) == 20 for rows in PINNED["covers"].values())  # mss 1-5 x 2 x 2
    assert {text for text, _ in REPACKED} <= set(PINNED["twin_siblings"])


@pytest.mark.parametrize("text", list(PINNED["covers"]))
def test_compiler_reproduces_the_pinned_covers(text: str) -> None:
    for config, pinned in PINNED["covers"][text].items():
        strategy, mss, pad = config.split("/")
        cover = compile_query(parse_query(text), int(mss), strategy, pad == "pad")
        if (text, config) in REPACKED:
            assert _rows(cover) != pinned["subtrees"]
            assert is_valid_cover(cover, int(mss)) and not cover.split_twins
            assert cover.join_count == pinned["join_count"]
            continue
        assert _rows(cover) == pinned["subtrees"], config
        assert cover.join_count == pinned["join_count"], config
        if strategy == "min-rc" and pad == "pad":
            # A filled key holds its unpadded node set and is never smaller
            # than the whole-component key.  It need not hold that key's
            # nodes: the walk takes the first child in pre-order, where the
            # old rule could skip a child too big and pad with a later one.
            whole = pinned.get("whole_padded", pinned["subtrees"])
            bare = _rows(compile_query(parse_query(text), int(mss), strategy, False))
            assert [row[0] for row in whole] == [row[0] for row in pinned["subtrees"]], config
            assert cover.join_count == len(whole) - 1, config
            for new, old, unpadded in zip(pinned["subtrees"], whole, bare):
                assert set(new[2]) >= set(unpadded[2]) and len(new[2]) >= len(old[2]), config
        # The key composed while packing is the key of the node set.
        for subtree in cover.subtrees:
            assert CoverSubtree(subtree.root, subtree.node_ids).key() == subtree.key(), config


def test_split_twins_name_the_groups_no_subtree_holds() -> None:
    query = parse_query("S(NP(NN)(NN))(VP(VBZ)(NP))")
    assert compile_query(query, 2, "min-rc").split_twins == [(1, (2, 3))]
    assert compile_query(query, 3, "min-rc").split_twins == []
    # "//" twins are in different rigid components and can never share a key.
    assert compile_query(parse_query("S(//NP)(//NP)"), 3, "optimal").split_twins == [(0, (1, 2))]


# ----------------------------------------------------------------------
# The parser
# ----------------------------------------------------------------------
def test_the_error_table_is_what_the_docstring_says() -> None:
    assert len(PARSE_ERRORS) >= 25


@pytest.mark.parametrize("row", PARSE_ERRORS, ids=[repr(row["text"]) for row in PARSE_ERRORS])
def test_malformed_input_gives_the_pinned_error(row: dict) -> None:
    with pytest.raises(QuerySyntaxError) as caught:
        parse_query(row["text"])
    assert str(caught.value) == row["message"]
    assert caught.value.position == row["position"]


def _scope_outcomes():
    """One line per string of at most six characters over ``( ) / ␠ a b``,
    shortest first: the text and the tree it parses to, or its error's
    message and position."""
    for length in range(7):
        for chars in itertools.product("()/ ab", repeat=length):
            text = "".join(chars)
            try:
                yield f"{text!r} {parse_query(text).to_string()}\n"
            except QuerySyntaxError as exc:
                yield f"{text!r} ! {exc} @{exc.position}\n"


def test_every_short_string_parses_as_it_did() -> None:
    started = time.perf_counter()
    digest = hashlib.sha256("".join(_scope_outcomes()).encode("utf-8")).hexdigest()
    assert digest == PARSE_SCOPE
    if timing_bars_enabled():
        assert time.perf_counter() - started < 2.0


def test_whitespace_around_an_axis_inside_brackets_is_not_an_error() -> None:
    # Looks malformed, is not: the old parser read it as S(//NP) too.
    assert parse_query("S( //NP )").to_string() == "S(//NP)"
    assert parse_query(" S ( / NP ) // VP ").to_string() == "S(NP)(//VP)"


_LABELS = ["S", "NP", "VP", "DT", "NN", "é", "a-b", "x_1"]
_SPACE = ["", "", " ", "  ", "\t", "\n "]


@st.composite
def _queries(draw, max_depth: int = 3) -> QueryTree:
    def build(depth: int) -> QueryNode:
        node = QueryNode(draw(st.sampled_from(_LABELS)))
        if depth < max_depth:
            for _ in range(draw(st.integers(min_value=0, max_value=3 - depth))):
                node.add_child(build(depth + 1), draw(st.sampled_from(["/", "//"])))
        return node

    return QueryTree(build(0))


@settings(max_examples=150, deadline=None)
@given(query=_queries(), seed=st.integers(min_value=0, max_value=2**16))
def test_parse_round_trips_with_both_axes_and_any_whitespace(query: QueryTree, seed: int) -> None:
    text = query.to_string()
    assert parse_query(text).to_string() == text
    # Whitespace may surround every token: brackets, axes and labels.
    rng = random.Random(seed)
    spaced = rng.choice(_SPACE)
    for token in text.replace("//", "\0").replace("(", "\1(\1").replace(")", "\1)\1").split("\1"):
        spaced += token.replace("\0", rng.choice(_SPACE) + "//" + rng.choice(_SPACE)) + rng.choice(_SPACE)
    parsed = parse_query(spaced)
    assert parsed.to_string() == text
    assert [node.node_id for node in parsed.nodes()] == list(range(query.size()))
