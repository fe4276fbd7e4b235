"""Tests for the three baseline systems.

Every baseline must return exactly the matches of the reference matcher; the
comparisons in Table 2 are only meaningful if all engines answer queries
identically.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.baselines.atreegrep import ATreeGrepIndex
from repro.baselines.frequency_based import FrequencyBasedIndex
from repro.baselines.node_index import NodeIntervalIndex
from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus
from repro.query.parser import parse_query
from repro.trees.matching import match_corpus

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


class TestNodeIntervalIndex:
    @pytest.fixture(scope="class")
    def index(self, corpus, tmp_path_factory) -> NodeIntervalIndex:
        path = str(tmp_path_factory.mktemp("node") / "node.bpt")
        return NodeIntervalIndex.build(corpus, path)

    def test_matches_reference(self, index, expected) -> None:
        for text in QUERY_TEXTS:
            assert index.execute(parse_query(text)).matches_per_tree == expected[text], text

    def test_reopen(self, corpus, tmp_path) -> None:
        path = str(tmp_path / "node.bpt")
        NodeIntervalIndex.build(corpus, path).close()
        reopened = NodeIntervalIndex.open(path)
        assert len(reopened.postings("NP")) > 0
        assert reopened.size_bytes() > 0
        reopened.close()

    def test_join_stats(self, index) -> None:
        result = index.execute(parse_query("S(NP)(VP)"))
        assert result.stats.coding == "node-interval"
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
