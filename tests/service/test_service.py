"""Integration tests for the QueryService: caching, batching, thread safety."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.corpus.generator import CorpusGenerator
from repro.exec.executor import QueryExecutor
from repro.query.parser import parse_query
from repro.service.service import PLAN_CACHE_SIZE, QueryService

QUERIES = [
    "NP(DT)(NN)",
    "S(NP)(VP)",
    "VP(VBZ)(NP)",
    "S(NP)(VP(VBZ))",
    "S(//NN)",
]


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, small_corpus) -> str:
    path = str(tmp_path_factory.mktemp("service") / "corpus.si")
    SubtreeIndex.build(small_corpus, mss=3, coding="root-split", path=path).close()
    return path


@pytest.fixture()
def index(index_path, small_corpus) -> SegmentSet:
    opened = SegmentSet.of(SubtreeIndex.open(index_path), small_corpus)
    yield opened
    opened.close()


@pytest.fixture()
def service(index) -> QueryService:
    svc = QueryService(index)
    yield svc
    svc.close()


class TestResultsMatchExecutor:
    def test_run_agrees_with_query_executor(self, service, index) -> None:
        executor = QueryExecutor(index)
        for text in QUERIES:
            expected = executor.execute(parse_query(text))
            assert service.run(text).matches_per_tree == expected.matches_per_tree
            # A second, cache-served run returns the same answer.
            assert service.run(text).matches_per_tree == expected.matches_per_tree

    def test_run_many_agrees_with_run(self, service) -> None:
        fresh = [f" {text} " for text in QUERIES]  # bypass nothing, just vary text
        batch = service.run_many(fresh)
        assert [r.matches_per_tree for r in batch] == [
            service.run(text).matches_per_tree for text in QUERIES
        ]

    def test_accepts_parsed_query_trees(self, service) -> None:
        parsed = parse_query("NP(DT)(NN)")
        assert service.run(parsed).matches_per_tree == service.run("NP(DT)(NN)").matches_per_tree


class TestPreparedQueryCache:
    def test_prepare_caches_by_normalized_text(self, service) -> None:
        first = service.prepare("NP(DT)(NN)")
        again = service.prepare("NP(DT)(NN)")
        spaced = service.prepare("NP( DT )( NN )")
        assert again is first
        assert spaced is first

    def test_path_form_shares_the_entry(self, service) -> None:
        bracketed = service.prepare("S(NP(//NN))")
        path_form = service.prepare("S/NP//NN")
        assert path_form is bracketed

    def test_plan_cache_counts_hits(self, service) -> None:
        service.prepare("NP(DT)(NN)")
        before = service.stats().plans.hits
        service.prepare("NP(DT)(NN)")
        assert service.stats().plans.hits == before + 1

    def test_prepared_keys_match_cover(self, service) -> None:
        prepared = service.prepare("S(NP)(VP(VBZ))")
        assert len(prepared.key_bytes) == len(prepared.cover.subtrees)
        assert prepared.key_bytes == tuple(subtree.key_bytes() for subtree in prepared.cover.subtrees)


class TestPostingCache:
    def test_repeat_run_hits_posting_cache(self, index) -> None:
        service = QueryService(index, result_cache_size=0)
        service.run("NP(DT)(NN)")
        descents_after_cold = service.stats().probes.tree_descents
        service.run("NP(DT)(NN)")
        stats = service.stats()
        assert stats.probes.tree_descents == descents_after_cold
        assert stats.postings.hits > 0
        service.close()

    def test_probe_counters_account_hits_and_misses(self, index) -> None:
        index.reset_probe_stats()
        service = QueryService(index, result_cache_size=0)
        service.run("NP(DT)(NN)")   # single-key cover: one get, one descent
        service.run("NP(DT)(NN)")   # served by the posting cache
        stats = service.stats().probes
        assert stats.gets == 2
        assert stats.tree_descents == 1
        assert stats.cache_hits == 1
        assert stats.gets - stats.cache_hits == 1  # the one miss descended
        assert stats.hit_rate == pytest.approx(0.5)
        service.close()


class TestResultCache:
    def test_identical_queries_share_the_result(self, service) -> None:
        first = service.run("NP(DT)(NN)")
        second = service.run("NP( DT )( NN )")
        assert second is first
        assert service.stats().results.hits == 1

    def test_all_caches_can_be_disabled(self, index) -> None:
        """Both caches with a size: a repeat is joined again over lists read
        again from the index (the prepared-query cache has no knob)."""
        index.reset_probe_stats()
        service = QueryService(index, postings_cache_size=0, result_cache_size=0)
        first = service.run("NP(DT)(NN)")
        descents = service.stats().probes.tree_descents
        second = service.run("NP(DT)(NN)")
        assert second is not first
        assert second.matches_per_tree == first.matches_per_tree
        stats = service.stats()
        assert stats.postings.lookups == 0
        assert stats.results.lookups == 0
        assert stats.probes.cache_hits == 0
        assert stats.probes.tree_descents == 2 * descents > 0  # nothing is cached in front of the index
        service.close()

    def test_disabled_result_cache_recomputes(self, index) -> None:
        service = QueryService(index, result_cache_size=0)
        first = service.run("NP(DT)(NN)")
        second = service.run("NP(DT)(NN)")
        assert second is not first
        assert second.matches_per_tree == first.matches_per_tree
        assert service.stats().results.lookups == 0
        service.close()


class TestBatchAPI:
    def test_batch_fetches_each_distinct_key_exactly_once(self, index) -> None:
        """The acceptance property: one B+Tree probe per distinct cover key."""
        index.reset_probe_stats()
        service = QueryService(index, result_cache_size=0)

        batch = ["NP(DT)(NN)", "S(NP)(VP)", "NP(DT)(NN)", "S(NP)(VP(VBZ))"]
        distinct_keys = set()
        for text in batch:
            distinct_keys.update(service.prepare(text).key_bytes)

        results = service.run_many(batch)
        stats = service.stats()
        assert len(results) == len(batch)
        assert stats.probes.gets == len(distinct_keys)
        assert stats.probes.tree_descents == len(distinct_keys)
        # The repeated query and any shared cover keys were deduplicated.
        total_keys = sum(len(service.prepare(text).key_bytes) for text in batch)
        assert stats.batch_keys_deduped == total_keys - len(distinct_keys)
        service.close()

    def test_second_batch_is_served_from_caches(self, index) -> None:
        service = QueryService(index, result_cache_size=0)
        service.run_many(QUERIES)
        descents = service.stats().probes.tree_descents
        service.run_many(QUERIES)
        assert service.stats().probes.tree_descents == descents
        service.close()

    def test_batch_results_keep_input_order(self, service) -> None:
        singles = {text: service.run(text).matches_per_tree for text in QUERIES}
        batch = service.run_many(list(reversed(QUERIES)))
        assert [r.matches_per_tree for r in batch] == [
            singles[text] for text in reversed(QUERIES)
        ]

    def test_empty_batch(self, service) -> None:
        assert service.run_many([]) == []

    def test_identical_batch_queries_share_one_join(self, index) -> None:
        service = QueryService(index, result_cache_size=0)
        first, second = service.run_many(["NP(DT)(NN)", "NP( DT )( NN )"])
        assert second is first  # joined once, shared across positions
        service.close()


class TestTwoServicesOverOneIndex:
    def test_each_counts_and_caches_its_own_lookups(self, index) -> None:
        """Two services over one set share no cache: each counts its own
        posting lookups, and closing one leaves the other's cache serving."""
        index.reset_probe_stats()
        first = QueryService(index, result_cache_size=0)
        second = QueryService(index, result_cache_size=0)
        first.run("NP(DT)(NN)")
        first.run("NP(DT)(NN)")
        assert first.stats().postings.lookups == 2
        assert second.stats().postings.lookups == 0
        first.close()
        second.run("NP(DT)(NN)")
        hits, descents = second.stats().postings.hits, second.stats().probes.tree_descents
        second.run("NP(DT)(NN)")
        assert second.stats().postings.hits == hits + 1
        assert second.stats().probes.tree_descents == descents
        second.close()

    def test_a_list_one_service_cached_is_read_again_by_the_other(self, index) -> None:
        index.reset_probe_stats()
        first = QueryService(index, result_cache_size=0)
        second = QueryService(index, result_cache_size=0)
        first.run("NP(DT)(NN)")
        second.run("NP(DT)(NN)")
        assert index.probe_stats.gets == 2  # one part lookup each
        assert first.stats().postings.hits == second.stats().postings.hits == 0
        assert len(first._postings_cache) == len(second._postings_cache) == 1
        first.close()
        second.close()

    def test_a_new_service_over_a_served_index_starts_cold(self, index) -> None:
        earlier = QueryService(index)
        earlier.run("NP(DT)(NN)")  # still open: its caches stay filled, and its own
        fresh = QueryService(index)
        fresh.run("NP(DT)(NN)")
        stats = fresh.stats()
        assert (stats.postings.hits, stats.postings.misses) == (0, 1)
        assert (stats.results.hits, stats.results.misses) == (0, 1)
        fresh.close()
        earlier.close()


class TestConstruction:
    def test_cache_capacities(self, index) -> None:
        service = QueryService(index)
        stats = service.stats()
        assert stats.plans.capacity == PLAN_CACHE_SIZE == 256
        assert (stats.postings.capacity, stats.results.capacity) == (4096, 1024)
        service.close()

    @pytest.mark.parametrize("knob", ["plan_cache_size", "stripes", "pad"])
    def test_no_other_knob_is_taken(self, index, knob) -> None:
        with pytest.raises(TypeError):
            QueryService(index, **{knob: 8})


class TestInvalidationOnReopen:
    def test_close_clears_the_cache(self, index_path, small_corpus) -> None:
        index = SegmentSet.of(SubtreeIndex.open(index_path), small_corpus)
        service = QueryService(index)
        service.run("NP(DT)(NN)")
        cache = service._postings_cache
        assert len(cache) > 0
        service.close()
        assert len(cache) == 0          # close() dropped the service's lists
        index.close()

        # A reopened index starts cold: nothing stale is served.
        reopened = SegmentSet.open(index_path)
        fresh = QueryService(reopened)
        fresh.run("NP(DT)(NN)")
        stats = fresh.stats()
        assert stats.postings.hits == 0
        assert stats.probes.tree_descents > 0
        reopened.close()

    def test_service_close_releases_owned_resources(self, index_path) -> None:
        service = QueryService.open(index_path)
        result = service.run("NP(DT)")
        assert result.total_matches > 0
        service.close()
        with pytest.raises(Exception):
            service.index.lookup(b"NP")  # underlying tree file is closed

    def test_open_missing_index_raises(self, tmp_path) -> None:
        missing = str(tmp_path / "nope.si")
        with pytest.raises(FileNotFoundError):
            QueryService.open(missing)
        assert not (tmp_path / "nope.si").exists()


class TestPlainIndexWithoutDataFile:
    """An index file alone: a structural coding answers, the filtering phase
    names the data file it lacks, and opening the file writes nothing."""

    @pytest.fixture()
    def directory(self, tmp_path):
        trees = CorpusGenerator(seed=3).generate_list(60)
        for coding in ("root-split", "filter"):
            SubtreeIndex.build(trees, mss=3, coding=coding, path=str(tmp_path / f"{coding}.si")).close()
        return tmp_path

    def test_open_serves_it_and_creates_no_data_file(self, directory) -> None:
        with QueryService.open(str(directory / "root-split.si")) as service:
            assert service.index.flavor == "plain"
            assert service.run("NP(DT)(NN)").total_matches == 71
            assert service.index.metadata.tree_count == 60  # from the file, not a data file
        with QueryService.open(str(directory / "filter.si")) as service:
            with pytest.raises(RuntimeError, match="filter-based execution needs a data file"):
                service.run("NP(DT)(NN)")
        assert sorted(os.listdir(directory)) == ["filter.si", "root-split.si"]


class TestConcurrency:
    def test_threaded_runs_return_consistent_results(self, index) -> None:
        service = QueryService(index)
        expected = {text: service.run(text).matches_per_tree for text in QUERIES}
        service.clear_caches()

        workload = QUERIES * 8

        def serve(text: str):
            return text, service.run(text).matches_per_tree

        with ThreadPoolExecutor(max_workers=6) as pool:
            for text, matches in pool.map(serve, workload):
                assert matches == expected[text]
        service.close()
