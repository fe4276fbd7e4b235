"""Unit tests for the one read path of the service's posting and result
caches: an entry is served under its part's tag, cut by the trees removed
from the part since it was cached, and cached back cut."""

from __future__ import annotations

import pytest

from repro.coding.postings import PostingColumns
from repro.core.segments import Part
from repro.exec.executor import ExecutionStats, QueryResult
from repro.service.cache import LRUCache
from repro.service.service import _cached, _remember, _without

REMOVED = [5, 7, 9]  # a lineage's removed tids, in removal order


def part(tag: int = 1, cut: int = 0) -> Part:
    return Part("segment", tag, (), REMOVED, cut)


def never_cut(value, removed):  # pragma: no cover - failure path
    raise AssertionError(f"cut by {sorted(removed)}")


def test_a_disabled_cache_holds_nothing() -> None:
    _remember(None, "NP(DT)", part(), "value")
    assert _cached(None, "NP(DT)", part(), never_cut) is None


def test_an_entry_under_another_tag_is_a_miss() -> None:
    cache = LRUCache(4)
    _remember(cache, "NP(DT)", part(tag=1), "value")
    assert _cached(cache, "NP(DT)", part(tag=2), never_cut) is None
    assert (cache.stats().hits, cache.stats().misses) == (0, 1)


def test_an_entry_at_the_parts_count_is_served_as_it_is() -> None:
    cache = LRUCache(4)
    value = object()
    _remember(cache, "NP(DT)", part(cut=2), value)
    assert _cached(cache, "NP(DT)", part(cut=2), never_cut) is value
    assert cache.peek(("NP(DT)", "segment")) == (1, (2, value))


def test_an_entry_behind_the_count_is_cut_once_and_cached_back() -> None:
    cache = LRUCache(4)
    calls = []

    def cut(value, removed):
        calls.append(removed)
        return [tid for tid in value if tid not in removed]

    _remember(cache, "NP(DT)", part(cut=1), [3, 7, 8, 9])
    served = _cached(cache, "NP(DT)", part(cut=3), cut)
    assert served == [3, 8]
    assert calls == [frozenset({7, 9})]  # tid 5 was removed before it was cached
    assert cache.peek(("NP(DT)", "segment")) == (1, (3, served))
    assert _cached(cache, "NP(DT)", part(cut=3), never_cut) is served


def test_a_list_is_cut_by_its_removed_trees() -> None:
    cache = LRUCache(4)
    columns = PostingColumns([3, 7, 8, 9])
    _remember(cache, b"NP(DT)", part(cut=0), columns)
    served = _cached(cache, b"NP(DT)", part(cut=2), PostingColumns.without_tids)
    assert list(served.tids) == [3, 8, 9]


@pytest.mark.parametrize("removed", [frozenset(), frozenset({99})])
def test_a_result_without_a_removed_match_is_itself(removed) -> None:
    result = QueryResult({3: 1, 8: 2})
    assert _without(result, removed) is result


def test_a_result_loses_the_removed_matches_and_keeps_its_stats() -> None:
    stats = ExecutionStats(coding="root-split", postings_fetched=4)
    result = QueryResult({3: 1, 7: 2, 8: 1}, stats)
    cut = _without(result, frozenset({7, 9}))
    assert cut.matches_per_tree == {3: 1, 8: 1}
    assert cut.stats is stats
    assert result.matches_per_tree == {3: 1, 7: 2, 8: 1}  # the cached original is not edited
