"""Tests for the baseline systems.

Every baseline must return exactly the matches of the reference matcher; the
comparisons in Table 2 are only meaningful if all engines answer queries
identically.  The paper's node approach (Section 6.3.1) is no engine of its
own: it is root-split coding at ``mss = 1``, pinned here row for row.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.baselines.atreegrep import ATreeGrepIndex
from repro.baselines.frequency_based import FrequencyBasedIndex
from repro.coding.root_split import RootSplitCoding
from repro.core.enumeration import number
from repro.core.index import SubtreeIndex
from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus
from repro.exec import QueryExecutor
from repro.query.parser import parse_query
from repro.trees.matching import match_corpus
from repro.workloads.fb import generate_fb_queries
from repro.workloads.wh import generate_wh_queries
from tests.coding.recordkit import encode_body

QUERY_TEXTS = [
    "NP",
    "NP(DT)",
    "NP(DT)(NN)",
    "VP(VBZ)(NP)",
    "S(NP)(VP)",
    "S(NP(DT))(VP(VBD))",
    "S(//NN)",
    "VP(VBD(//NNS))",
    "PP(IN)(NP(NN))",
    "QP(WDT)",
]


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    return Corpus(CorpusGenerator(seed=303).generate(60))


@pytest.fixture(scope="module")
def expected(corpus) -> Dict[str, Dict[int, int]]:
    return {text: match_corpus(parse_query(text).root, list(corpus)) for text in QUERY_TEXTS}


class TestNodeApproach:
    """The LPath-style node index -- one ``(tid, pre, post, level)`` row per
    node under its label, one structural join per query edge -- is
    ``SubtreeIndex.build(trees, 1, "root-split", path)``."""

    @pytest.fixture(scope="class")
    def index(self, corpus, tmp_path_factory) -> SubtreeIndex:
        path = str(tmp_path_factory.mktemp("node") / "node.si")
        SubtreeIndex.build(corpus, 1, "root-split", path).close()
        index = SubtreeIndex.open(path)  # what a reader of the file sees
        yield index
        index.close()

    def test_one_row_per_node_under_its_label(self, index, corpus) -> None:
        rows: Dict[str, List[int]] = {}
        for tree in corpus:
            labels, codes, _ = number(tree)
            for label, (pre, post, level) in zip(labels, codes):
                rows.setdefault(label, []).extend((tree.tid, pre, post, level))
        coding = RootSplitCoding()
        assert list(index.raw_items()) == [
            (label.encode("utf-8"), encode_body(coding, body)) for label, body in sorted(rows.items())
        ]

    def test_wh_and_fb_equal_the_matcher(self, index, corpus) -> None:
        trees = list(corpus)
        fb = generate_fb_queries(trees, CorpusGenerator(seed=304).generate_list(30), seed=3).queries
        texts = [item.text for item in generate_wh_queries()] + [item.text for item in fb]
        assert len(texts) > 48
        executor = QueryExecutor(index)
        for text in texts:
            query = parse_query(text)
            assert executor.execute(query).matches_per_tree == match_corpus(query.root, trees), text

    def test_matches_reference(self, index, expected) -> None:
        executor = QueryExecutor(index)
        for text in QUERY_TEXTS:
            assert executor.execute(parse_query(text)).matches_per_tree == expected[text], text

    def test_one_join_per_query_edge(self, index) -> None:
        result = QueryExecutor(index).execute(parse_query("S(NP)(VP)"))
        assert result.stats.cover_size == 3
        assert result.stats.join_count == 2
        assert result.stats.postings_fetched > 0


class TestATreeGrep:
    @pytest.fixture(scope="class")
    def index(self, corpus) -> ATreeGrepIndex:
        return ATreeGrepIndex.build(corpus, store=corpus)

    def test_matches_reference(self, index, expected) -> None:
        for text in QUERY_TEXTS:
            assert index.execute(parse_query(text)).matches_per_tree == expected[text], text

    def test_prefilter_limits_candidates(self, index, corpus) -> None:
        result = index.execute(parse_query("QP(WDT)"))
        assert result.stats.candidates_filtered <= len(corpus)

    def test_no_match_query(self, index) -> None:
        assert index.execute(parse_query("ZZ(YY)")).matches_per_tree == {}


class TestFrequencyBased:
    @pytest.fixture(scope="class", params=[0.001, 0.01, 0.1])
    def index(self, request, corpus) -> FrequencyBasedIndex:
        return FrequencyBasedIndex.build(corpus, store=corpus, mss=3, frequency_cutoff=request.param)

    def test_matches_reference(self, index, expected) -> None:
        for text in QUERY_TEXTS:
            assert index.execute(parse_query(text)).matches_per_tree == expected[text], text

    def test_higher_cutoff_keeps_more_keys(self, corpus) -> None:
        small = FrequencyBasedIndex.build(corpus, store=corpus, frequency_cutoff=0.001)
        large = FrequencyBasedIndex.build(corpus, store=corpus, frequency_cutoff=0.10)
        assert large.key_count >= small.key_count

    def test_single_nodes_always_kept(self, corpus) -> None:
        index = FrequencyBasedIndex.build(corpus, store=corpus, frequency_cutoff=0.0)
        assert index.tids(b"NP")
