"""A root-split query is answered from its arrays: parsing, compiling,
looking up and joining an FB query of rare labels (the L, M and ML classes
``perfbench``'s ``fb_point_rs`` draws from) -- or a wider query the join
answers, with ``//`` edges and same-label siblings -- constructs no
:class:`~repro.query.model.QueryNode`.  Query nodes are built only for a
caller that walks them -- the filtering phase, ``--explain``, the
baselines -- and ``tests/test_invariants.py::test_a_query_is_arrays``
holds the compiler to the arrays."""

from __future__ import annotations

from typing import List

import pytest

from repro.core.index import SubtreeIndex
from repro.corpus.generator import CorpusGenerator
from repro.exec.executor import QueryExecutor
from repro.query.model import QueryNode
from repro.query.parser import parse_query
from repro.trees.matching import match_corpus
from repro.workloads import generate_fb_queries

_CLASSES = ("L", "M", "ML")
#: Queries of two or more keys at every mss tested: a cut, twins, siblings
#: bound apart by the join.
_JOINED = ["S(NP(DT)(NN))(VP(VBZ))", "VP(VBD(//NN))", "S(NP(NN)(NN))(VP(VBZ)(NP))", "NP(NP(DT)(NN))(PP(IN)(NP))"]


@pytest.fixture(scope="module")
def indexed():
    return CorpusGenerator(seed=20120801).generate_list(120)


@pytest.fixture(scope="module")
def texts(indexed) -> List[str]:
    """The point queries: cut from the indexed trees (they match) and from
    held-out ones (most name a key the index lacks), as the benchmark cuts
    its pool from held-out corpora."""
    pools = [indexed, CorpusGenerator(seed=2_000_004).generate_list(60)]
    found = [
        item.text
        for trees in pools
        for item in generate_fb_queries(indexed, trees, seed=5, classes=_CLASSES).queries
    ]
    assert len(found) >= 40
    return found + _JOINED


@pytest.mark.parametrize("mss", [1, 2, 3])
def test_a_root_split_query_builds_no_query_node(monkeypatch, tmp_path, indexed, texts, mss: int) -> None:
    executor = QueryExecutor(SubtreeIndex.build(indexed, mss=mss, coding="root-split", path=str(tmp_path / "i.si")))
    built = []
    init = QueryNode.__init__

    def counted(node: QueryNode, label: str) -> None:
        built.append(label)
        init(node, label)

    monkeypatch.setattr(QueryNode, "__init__", counted)
    answers = [executor.execute(parse_query(text)) for text in texts]
    assert built == []
    monkeypatch.undo()
    # The answers are exact, and some of them were joined from two or more keys.
    joined = 0
    for text, answer in zip(texts, answers):
        query = parse_query(text)
        assert answer.matches_per_tree == match_corpus(query.root, indexed), (mss, text)
        joined += answer.stats.cover_size > 1 and bool(answer.matches_per_tree)
    assert joined > 0
