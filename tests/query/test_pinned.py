"""The compiler and the parser against what the code they replaced produced.

``data/covers.json`` and ``data/parse_errors.json`` were written at the
parent of PR 17 by the recursive ``_min_rc_component`` / ``_optimal_component``
/ ``_pad_bins`` chain and the character-loop parser, both since deleted.  The
one-pass compiler and the tokenising parser must reproduce them exactly; the
only covers allowed to differ are those :data:`CHANGED` lists, of queries with
same-label siblings.  The ``min-rc/*/pad`` rows were
rewritten when root-split keys began to be filled to ``mss``: each such cover
must also keep the roots, in order, and the join count of the whole-component
padding it replaced (``whole_padded``), every subtree a superset of its
unpadded node set and no smaller than its old one.  A changed ``min-rc/*/pad``
cover keeps the roots of the unpadded cover now compiled, each subtree a
superset of its unpadded one.
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
from repro.query.covers import CoverSubtree, is_root_split_cover, is_valid_cover
from repro.query.decompose import compile_query
from repro.query.model import QueryNode, QueryTree
from repro.query.parser import QuerySyntaxError, parse_query

DATA = Path(__file__).parent / "data"
PINNED = json.loads((DATA / "covers.json").read_text())
PARSE_ERRORS = json.loads((DATA / "parse_errors.json").read_text())
#: The sha256 of :func:`_scope_outcomes`, recorded with the tokenising
#: parser the one-split parser replaced.
PARSE_SCOPE = (DATA / "parse_scope.sha256").read_text().strip()

#: The covers that differ from the pinned ones, by text: each same-label
#: sibling is held with all its twins in one key or roots a subtree the join
#: binds.  Six WH templates, five FB queries and one extra.  The WH row
#: ``S(NP(DT)(NN)(NN))(VP(VBD)(NP))`` at mss 3 changed first, when ``assign``
#: began to keep its NN twins in one subtree.
CHANGED = {
    "S(NP(NNP)(NNP))(VP(VBD)(NP(DT)(NN)))": ("min-rc/2/pad", "min-rc/2/nopad"),
    "S(NP(NNP)(NNP))(VP(VBZ)(ADJP(JJ)))": ("min-rc/2/pad", "min-rc/2/nopad"),
    "S(NP(NN)(NN))(VP(VBZ)(NP))": ("min-rc/2/pad", "min-rc/2/nopad"),
    "S(NP(NNP)(NNP))(VP(VBZ)(PP(IN)(NP)))": ("min-rc/2/pad", "min-rc/2/nopad"),
    "S(NP(PRP))(VP(VBD)(PP(IN)(NP(NNP)(NNP))))": ("min-rc/2/pad", "min-rc/2/nopad"),
    "S(NP(DT)(NN)(NN))(VP(VBD)(NP))": (
        "min-rc/2/pad", "min-rc/2/nopad", "min-rc/3/nopad", "optimal/3/pad", "optimal/3/nopad",
    ),
    "VP(VBD(vbd_0004))(ADVP(RB(rb_0003))(RB(rb_0006)))": (
        "min-rc/3/pad", "min-rc/3/nopad", "min-rc/4/pad", "min-rc/4/nopad",
        "min-rc/5/pad", "min-rc/5/nopad", "optimal/5/pad", "optimal/5/nopad",
    ),
    "NP(NP(NNP(nnp_0017)))(CC(cc_0002))(NP(PRP(prp_0000)))": (
        "min-rc/4/pad", "min-rc/4/nopad", "min-rc/5/pad", "min-rc/5/nopad",
    ),
    "NP(DT(dt_0001))(JJ(jj_0010))(JJ(jj_0196))(NN(nn_0001))": (
        "min-rc/3/pad", "min-rc/3/nopad", "min-rc/4/pad", "min-rc/4/nopad", "min-rc/5/pad", "min-rc/5/nopad",
    ),
    "QP(CD(cd_0000))(CD(cd_0002))": ("min-rc/3/pad", "min-rc/3/nopad", "min-rc/4/pad", "min-rc/4/nopad"),
    "NP(NNP(nnp_1324))(NNP(nnp_0021))": ("min-rc/3/pad", "min-rc/3/nopad", "min-rc/4/pad", "min-rc/4/nopad"),
    "A(B(C)(D))(//B(C)(D))(E(F)(G)(H))": ("min-rc/4/pad", "min-rc/4/nopad", "min-rc/5/pad", "min-rc/5/nopad"),
}
#: The changed covers that keep the pinned join count: the NN twins of this
#: template fit one bin at mss 3, so one key holds them and no join is added.
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
    assert set(PINNED["twin_siblings"]) < set(CHANGED) <= set(PINNED["covers"])
    assert sum(text in PINNED["wh"] for text in CHANGED) == 6
    assert sum(text in PINNED["fb"] for text in CHANGED) == 5


def _same_label_siblings_are_held_or_bound(cover, strategy: str) -> bool:
    """Under ``min-rc`` every same-label sibling is held with all its twins
    in one key or roots a subtree; under ``optimal`` no key holds two
    same-label siblings but a whole group of twins.  A query that is one key
    holds them all."""
    if len(cover.subtrees) == 1:
        return True
    roots = {subtree.root.node_id for subtree in cover.subtrees}
    for node in cover.query.nodes():
        axes = {child.node_id: axis for child, axis in zip(node.children, node.child_axes)}
        for label in {child.label for child in node.children}:
            group = [child for child in node.children if child.label == label]
            ids = {child.node_id for child in group}
            slashed = [child.node_id for child in group if axes[child.node_id] == "/"]
            twins = len(slashed) == len(group) and len({child.to_string() for child in group}) == 1
            if len(group) < 2 or twins and any(subtree.node_ids >= ids for subtree in cover.subtrees):
                continue
            if strategy == "min-rc" and not roots.issuperset(slashed):
                return False
            if strategy == "optimal" and any(len(subtree.node_ids & ids) > 1 for subtree in cover.subtrees):
                return False
    return True


@pytest.mark.parametrize("text", list(PINNED["covers"]))
def test_compiler_reproduces_the_pinned_covers(text: str) -> None:
    assert {config for pinned_text, config in REPACKED if pinned_text == text} <= set(CHANGED.get(text, ()))
    for config, pinned in PINNED["covers"][text].items():
        strategy, mss, pad = config.split("/")
        cover = compile_query(parse_query(text), int(mss), strategy, pad == "pad")
        assert is_valid_cover(cover, int(mss)), config
        assert _same_label_siblings_are_held_or_bound(cover, strategy), config
        changed = config in CHANGED.get(text, ())
        if changed:
            assert _rows(cover) != pinned["subtrees"], config
            if strategy == "min-rc":
                assert is_root_split_cover(cover), config
        else:
            assert _rows(cover) == pinned["subtrees"], config
        if not changed or (text, config) in REPACKED:
            assert cover.join_count == pinned["join_count"], config
        if strategy == "min-rc" and pad == "pad":
            bare_cover = compile_query(parse_query(text), int(mss), strategy, False)
            if changed:
                roots = [subtree.root.node_id for subtree in cover.subtrees]
                assert roots == [subtree.root.node_id for subtree in bare_cover.subtrees], config
                for new, unpadded in zip(cover.subtrees, bare_cover.subtrees):
                    assert new.node_ids >= unpadded.node_ids, config
            else:
                # A filled key holds its unpadded node set and is never
                # smaller than the whole-component key.  It need not hold
                # that key's nodes: the walk takes the first child in
                # pre-order, where the old rule could skip a child too big
                # and pad with a later one.
                whole = pinned.get("whole_padded", pinned["subtrees"])
                bare = _rows(bare_cover)
                assert [row[0] for row in whole] == [row[0] for row in pinned["subtrees"]], config
                assert cover.join_count == len(whole) - 1, config
                for new, old, unpadded in zip(pinned["subtrees"], whole, bare):
                    assert set(new[2]) >= set(unpadded[2]) and len(new[2]) >= len(old[2]), config
        # The key composed while packing is the key of the node set.
        for subtree in cover.subtrees:
            assert CoverSubtree(cover.query, subtree.root_id, subtree.node_ids).key() == subtree.key(), config


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
