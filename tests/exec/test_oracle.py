"""The join kernel against an independent oracle (ROADMAP aim 3).

Every WH template and a seeded FB sample, under all three codings, over the
three shapes an index takes -- one file, three shards behind a manifest
(``QueryExecutor`` over both), and a live index of base segments, a
non-empty delta and tombstones behind ``QueryService`` -- must return
exactly what the brute-force matcher
(:func:`repro.trees.matching.count_matches`, the paper's Definition 3)
finds tree by tree.  Nothing here compares one of our code
paths with another.
"""

from __future__ import annotations

import random
from typing import Dict

import pytest

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus
from repro.exec import QueryExecutor
from repro.live import LiveIndex
from repro.query.decompose import min_rc
from repro.query.model import has_duplicate_siblings
from repro.query.parser import parse_query
from repro.service import QueryService
from repro.shard import build_sharded
from repro.trees.matching import count_matches
from repro.workloads.fb import generate_fb_queries
from repro.workloads.wh import generate_wh_queries
from tests.coding.recordkit import rows

CODINGS = ("filter", "root-split", "subtree-interval")
FLAVORS = ("executor", "sharded", "live")
MSS = 3
TREES = 150
#: Live layout: a seed segment, a compacted second segment, then a delta.
SEED, COMPACTED = 90, 120
TOMBSTONES = (5, 47, 101, 133)  # seed, seed, second segment, delta

_TREES = CorpusGenerator(seed=2012).generate_list(TREES)
_WH = [item.text for item in generate_wh_queries()]
_FB = [
    item.text
    for item in random.Random(13).sample(
        generate_fb_queries(
            _TREES, CorpusGenerator(seed=2013).generate_list(60), seed=13
        ).queries,
        24,
    )
]
QUERIES = _WH + _FB

#: Six WH templates have twin siblings.  In all six the twins fit one cover
#: subtree at mss 3, and ``assign`` packs them together -- including
#: ``S(NP(DT)(NN)(NN))(VP(VBD)(NP))``, which FFD used to split across
#: ``NP(DT)(NN)`` and ``NP(NN)`` and which over-counted 14 vs 3 under both
#: structural codings.  Where they do not fit, the join binds them
#: (``test_every_wh_template_is_exact_at_every_mss``, below).


def _cases():
    for flavor in FLAVORS:
        for coding in CODINGS:
            for text in QUERIES:
                yield pytest.param(flavor, coding, text, id=f"{flavor}-{coding}-{text}")


@pytest.fixture(scope="module")
def oracle() -> Dict[str, Dict[int, int]]:
    """``query text -> {tid: matches}`` by brute force over every tree."""
    answers: Dict[str, Dict[int, int]] = {}
    for text in QUERIES:
        root = parse_query(text).root
        counts = ((tree.tid, count_matches(root, tree)) for tree in _TREES)
        answers[text] = {tid: count for tid, count in counts if count}
    return answers


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    """``(flavor, coding) -> query text -> matches_per_tree``."""
    workdir = tmp_path_factory.mktemp("oracle")
    run, closers = {}, []
    for coding in CODINGS:
        index = SubtreeIndex.build(_TREES, MSS, coding, str(workdir / f"plain-{coding}.si"))
        executor = QueryExecutor(index, store=Corpus(_TREES))
        run["executor", coding] = lambda text, e=executor: e.execute(parse_query(text))
        closers.append(index.close)

        sharded = SegmentSet.open(build_sharded(
            _TREES, MSS, coding, str(workdir / f"sharded-{coding}.si"), shards=3, workers=1
        ))
        merged = QueryExecutor(sharded)
        run["sharded", coding] = lambda text, e=merged: e.execute(parse_query(text))
        closers.append(sharded.close)

        live = LiveIndex.create(
            str(workdir / f"live-{coding}"), MSS, coding, trees=_TREES[:SEED], fsync=False
        )
        for tree in _TREES[SEED:COMPACTED]:
            live.add_tree(tree.root)
        live.compact()
        for tree in _TREES[COMPACTED:]:
            live.add_tree(tree.root)
        for tid in TOMBSTONES:
            live.delete_tree(tid)
        assert live.segment_count == 2 and live.delta.tree_count and live.tombstones
        service = QueryService(live, result_cache_size=0)
        run["live", coding] = service.run
        closers += [service.close, live.close]
    yield run
    for close in closers:
        close()


def test_the_sample_is_what_the_docstring_says() -> None:
    assert len(_WH) == 48 and len(_FB) == 24
    assert sum(has_duplicate_siblings(parse_query(text)) for text in _WH) == 6


@pytest.mark.parametrize("flavor, coding, text", _cases())
def test_matches_equal_the_brute_force_oracle(flavor, coding, text, engines, oracle) -> None:
    expected = oracle[text]
    if flavor == "live":
        expected = {tid: count for tid, count in expected.items() if tid not in TOMBSTONES}
    result = engines[flavor, coding](text)
    assert result.matches_per_tree == expected
    assert list(result.matches_per_tree) == sorted(expected)  # ascending tid
    assert result.total_matches == sum(expected.values())


# ----------------------------------------------------------------------
# Twins bound by relations of their own: the join keeps them apart
# ----------------------------------------------------------------------
_TWINS = [text for text in _WH if has_duplicate_siblings(parse_query(text))]


@pytest.fixture(scope="module")
def per_node_engines(tmp_path_factory):
    """Engines with one relation per query node: both structural codings
    at mss 1 (root-split at mss 1 is the paper's node approach)."""
    workdir = tmp_path_factory.mktemp("per-node")
    indexes = [
        SubtreeIndex.build(_TREES, 1, coding, str(workdir / f"{coding}.si")) for coding in CODINGS[1:]
    ]
    yield {index.coding.name: QueryExecutor(index).execute for index in indexes}
    for index in indexes:
        index.close()


@pytest.mark.parametrize("engine", ["root-split", "subtree-interval"])
@pytest.mark.parametrize("text", _TWINS)
def test_twins_in_relations_of_their_own_are_exact(engine, text, per_node_engines, oracle) -> None:
    assert per_node_engines[engine](parse_query(text)).matches_per_tree == oracle[text]


# ----------------------------------------------------------------------
# Filled root-split keys: a bigger key at the same root reads a subset
# ----------------------------------------------------------------------
def test_a_filled_key_reads_a_subset_of_its_bare_keys_rows(tmp_path, small_corpus) -> None:
    """For every WH template, each key of the padded ``minRC`` cover holds
    no ``(tid, pre)`` row that its unpadded key lacks, and the answer is
    the brute-force one."""
    trees = list(small_corpus)
    index = SubtreeIndex.build(trees, MSS, "root-split", str(tmp_path / "rs.si"))
    executor = QueryExecutor(index, store=small_corpus)
    filled = 0
    try:
        for text in _WH:
            query = parse_query(text)
            for padded, bare in zip(min_rc(query, MSS), min_rc(query, MSS, pad=False)):
                assert padded.root is bare.root
                if padded.node_ids == bare.node_ids:
                    continue
                filled += 1
                narrow = {row[:2] for row in rows(index.lookup(padded.key_bytes()))}
                assert narrow <= {row[:2] for row in rows(index.lookup(bare.key_bytes()))}, text
            counts = ((tree.tid, count_matches(query.root, tree)) for tree in trees)
            expected = {tid: count for tid, count in counts if count}
            assert executor.execute(query).matches_per_tree == expected, text
    finally:
        index.close()
    assert filled


# ----------------------------------------------------------------------
# WH at the paper's scale: every coding, every mss
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def wh_corpus():
    """1 200 sentences and ``WH text -> {tid: matches}`` by brute force over them."""
    trees = CorpusGenerator(seed=1).generate_list(1200)
    answers: Dict[str, Dict[int, int]] = {}
    for text in _WH:
        root = parse_query(text).root
        counts = ((tree.tid, count_matches(root, tree)) for tree in trees)
        answers[text] = {tid: count for tid, count in counts if count}
    return trees, answers


@pytest.mark.parametrize("mss", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("coding", CODINGS)
def test_every_wh_template_is_exact_at_every_mss(tmp_path, wh_corpus, coding: str, mss: int) -> None:
    """All 48 templates, twins included: root-split at mss 2 returned 149
    matches for ``S(NP(NN)(NN))(VP(VBZ)(NP))`` against 3 while its twins
    were split over two ``NP(NN)`` keys."""
    trees, oracle = wh_corpus
    index = SubtreeIndex.build(trees, mss, coding, str(tmp_path / "wh.si"))
    try:
        executor = QueryExecutor(index, store=Corpus(trees))
        wrong = [text for text in _WH if executor.execute(parse_query(text)).matches_per_tree != oracle[text]]
        assert wrong == []
    finally:
        index.close()
