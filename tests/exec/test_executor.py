"""Integration tests: index executors vs the reference matcher.

The central correctness claim of the paper is that root-split and
subtree-interval codings perform *exact* matching without post-validation.
These tests build all three indexes over a shared synthetic corpus and check
that every executor returns exactly the matches of the naive in-memory
matcher, query by query.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.core.index import SubtreeIndex
from repro.corpus.store import Corpus
from repro.exec.executor import QueryExecutor
from repro.query.model import QueryTree, has_duplicate_siblings, query_from_node
from repro.query.parser import parse_query
from repro.trees.matching import match_corpus

CODINGS = ["filter", "root-split", "subtree-interval"]
MSS_VALUES = [1, 2, 3]

#: Structural queries exercised against the shared corpus.  They only use
#: Penn tags produced by the generator grammar, and avoid duplicate siblings
#: (see DESIGN.md on ambiguity of such queries).
QUERY_TEXTS = [
    "NP",
    "VBZ",
    "NP(DT)",
    "NP(DT)(NN)",
    "VP(VBZ)",
    "S(NP)(VP)",
    "VP(VBZ)(NP)",
    "NP(DT)(JJ)(NN)",
    "S(NP(DT))(VP)",
    "S(NP)(VP(VBD))",
    "VP(VBD(//NN))",
    "S(//NN)",
    "S(NP(//DT))(VP)",
    "NP(NP)(PP(IN))",
    "PP(IN)(NP(NN))",
    "S(NP(DT)(NN))(VP(VBZ))",
    "VP(MD)(VP)",
    "ROOT(S(NP)(VP))",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Corpus:
    from repro.corpus.generator import CorpusGenerator

    return Corpus(CorpusGenerator(seed=101).generate(80))


@pytest.fixture(scope="module")
def executors(tmp_path_factory, corpus: Corpus) -> Dict[tuple, QueryExecutor]:
    directory = tmp_path_factory.mktemp("indexes")
    built: Dict[tuple, QueryExecutor] = {}
    for coding in CODINGS:
        for mss in MSS_VALUES:
            path = str(directory / f"{coding}-{mss}.si")
            index = SubtreeIndex.build(corpus, mss=mss, coding=coding, path=path)
            built[(coding, mss)] = QueryExecutor(index, store=corpus)
    return built


def _expected(corpus: Corpus, query: QueryTree) -> Dict[int, int]:
    return match_corpus(query.root, list(corpus))


class TestExecutorsAgainstReferenceMatcher:
    @pytest.mark.parametrize("text", QUERY_TEXTS)
    @pytest.mark.parametrize("coding", CODINGS)
    def test_matches_reference(self, executors, corpus, coding: str, text: str) -> None:
        query = parse_query(text)
        assert not has_duplicate_siblings(query)
        expected = _expected(corpus, query)
        for mss in MSS_VALUES:
            result = executors[(coding, mss)].execute(query)
            assert result.matches_per_tree == expected, (
                f"coding={coding} mss={mss} query={text}: "
                f"{result.matches_per_tree} != {expected}"
            )

    @pytest.mark.parametrize("coding", CODINGS)
    def test_no_match_query(self, executors, coding: str) -> None:
        query = parse_query("QP(WP)(WDT)")
        for mss in MSS_VALUES:
            result = executors[(coding, mss)].execute(query)
            assert result.matches_per_tree == {}

    def test_codings_agree_with_each_other(self, executors) -> None:
        query = parse_query("S(NP(DT))(VP(VBZ))")
        results = {
            (coding, mss): executors[(coding, mss)].execute(query).matches_per_tree
            for coding in CODINGS
            for mss in MSS_VALUES
        }
        baseline = results[("filter", 1)]
        assert all(value == baseline for value in results.values())


class TestExtractedSubtreeQueries:
    """FB-style queries: subtrees extracted from held-out generated trees."""

    def test_extracted_queries_match_reference(self, executors, corpus) -> None:
        from repro.corpus.generator import CorpusGenerator

        held_out = CorpusGenerator(seed=999).generate_list(5)
        queries: List[QueryTree] = []
        for tree in held_out:
            for node in tree.root.preorder():
                if 2 <= node.size() <= 6 and not node.is_leaf:
                    query = QueryTree(query_from_node(node))
                    if not has_duplicate_siblings(query):
                        queries.append(query)
                if len(queries) >= 12:
                    break
            if len(queries) >= 12:
                break

        assert queries, "no extracted queries -- generator changed unexpectedly?"
        for query in queries:
            expected = _expected(corpus, query)
            for coding in CODINGS:
                result = executors[(coding, 3)].execute(query)
                assert result.matches_per_tree == expected, query.to_string()


class TestExecutionStats:
    def test_stats_populated(self, executors) -> None:
        query = parse_query("S(NP(DT)(NN))(VP)")
        result = executors[("root-split", 3)].execute(query)
        stats = result.stats
        assert stats.coding == "root-split"
        assert stats.strategy == "min-rc"
        assert stats.cover_size >= 1
        assert stats.join_count == stats.cover_size - 1
        assert stats.elapsed_seconds > 0

    def test_filter_based_counts_candidates(self, executors) -> None:
        query = parse_query("NP(DT)")
        result = executors[("filter", 2)].execute(query)
        assert result.stats.candidates_filtered >= len(result.matches_per_tree)

    def test_filter_without_store_raises(self, executors, corpus, tmp_path) -> None:
        index = SubtreeIndex.build(list(corpus)[:5], mss=2, coding="filter", path=str(tmp_path / "f.si"))
        executor = QueryExecutor(index, store=None)
        with pytest.raises(RuntimeError):
            executor.execute(parse_query("NP(DT)"))

    def test_default_strategies(self, executors) -> None:
        assert executors[("root-split", 2)].strategy == "min-rc"
        assert executors[("subtree-interval", 2)].strategy == "optimal"
        assert executors[("filter", 2)].strategy == "optimal"

    def test_no_constructor_accepts_a_cover_policy(self, executors, corpus) -> None:
        """The cover policy is a function of the coding (Section 5.2): on
        root-split only ``min-rc`` is exact, and an ``optimal`` cover there
        gave wrong answers without a warning, so no caller may choose one."""
        import inspect

        from repro.core.segments import SegmentSet
        from repro.service.service import QueryService

        index = executors[("root-split", 2)].index
        for constructor in (QueryExecutor, QueryService):
            assert "strategy" not in inspect.signature(constructor).parameters
            with pytest.raises(TypeError, match="strategy"):
                constructor(SegmentSet.of(index, corpus), strategy="optimal")


class TestStagedJoin:
    """``join_postings`` called stage by stage, as a caller that reads the
    B+Tree itself does (``perfbench``): ``[]`` stands for a key the index
    lacks, and a list for a key it holds is passed as ``lookup`` decodes it."""

    @pytest.mark.parametrize("coding", CODINGS)
    @pytest.mark.parametrize("text, keys", [("NP(ZZZ)", 1), ("S(NP(ZZZ))(VP(VBZ))", 2)])
    def test_an_absent_key_passed_as_an_empty_list_matches_nothing(
        self, executors, corpus, coding: str, text: str, keys: int
    ) -> None:
        from repro.exec.executor import join_postings

        executor = executors[(coding, 3)]
        query = parse_query(text)
        cover = executor.decompose(query)
        assert min(len(cover.subtrees), 2) == keys  # the single-key path, then the multi-key one
        postings = []
        for subtree in cover.subtrees:
            found = executor.index.lookup(subtree.key_bytes())
            postings.append(found if len(found) else [])
        assert [] in postings and (keys == 1 or any(len(plist) for plist in postings))
        result = join_postings(query, cover, postings, executor.index.coding, store=corpus)
        assert result.matches_per_tree == {} and result.total_matches == 0
