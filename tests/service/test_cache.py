"""Unit tests for the serving-layer LRU cache."""

from __future__ import annotations

import threading

import pytest

from repro.service.cache import LRUCache


class TestLRUCache:
    def test_put_and_get(self) -> None:
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", "default") == "default"

    def test_none_is_a_cacheable_value(self) -> None:
        cache = LRUCache(4)
        cache.put("absent-key", None)
        sentinel = object()
        assert cache.get("absent-key", sentinel) is None
        assert cache.get("other", sentinel) is sentinel

    def test_capacity_must_be_positive(self) -> None:
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_eviction_is_least_recently_used(self) -> None:
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        cache.get("a")          # refresh a: order is now b, c, a
        cache.put("d", "D")     # evicts b
        assert "b" not in cache
        assert all(key in cache for key in "acd")
        assert cache.keys() == ["c", "a", "d"]

    def test_put_refreshes_recency(self) -> None:
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # refresh a: LRU is now b
        cache.put("c", 3)       # evicts b
        assert "b" not in cache
        assert cache.get("a") == 10
        assert cache.get("c") == 3

    def test_peek_leaves_recency_and_counters_alone(self) -> None:
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("nope", "absent") == "absent"
        cache.put("c", 3)       # a is still the LRU entry: evicted
        assert "a" not in cache
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)

    def test_hit_miss_eviction_counters(self) -> None:
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("nope")
        cache.put("b", 2)
        cache.put("c", 3)       # evicts a
        stats = cache.stats()
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.evictions == 1
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.size == 2
        assert stats.capacity == 2

    def test_a_stale_tag_is_a_miss_and_clear_empties(self) -> None:
        cache = LRUCache(4)
        cache.put("a", ((0, 1), "old"))
        cache.put("b", ((0, 2), "new"))
        assert cache.get_tagged("b", (0, 2)) == "new"
        assert cache.get_tagged("a", (0, 2)) is None  # stale: kept until replaced
        assert cache.get_tagged("never-there", (0, 2)) is None
        assert (cache.stats().hits, cache.stats().misses) == (1, 2)
        assert "a" in cache and "b" in cache
        cache.clear()
        assert len(cache) == 0

    def test_hit_rate_of_untouched_cache_is_zero(self) -> None:
        assert LRUCache(1).stats().hit_rate == 0.0

    def test_protocol_round_trip(self) -> None:
        cache = LRUCache(64)
        for i in range(40):
            cache.put(i, str(i))
        assert all(cache.get(i) == str(i) for i in range(40))
        assert len(cache) == 40
        cache.put(7, ("tag", "seven"))
        assert cache.get_tagged(7, "tag") == "seven" and cache.get_tagged(7, "other") is None
        cache.clear()
        assert len(cache) == 0

    def test_concurrent_mixed_operations_are_safe(self) -> None:
        cache = LRUCache(128)
        errors = []

        def worker(worker_id: int) -> None:
            try:
                for i in range(500):
                    key = (worker_id * 7 + i) % 200
                    cache.put(key, key * 2)
                    value = cache.get(key)
                    assert value is None or value == key * 2
                    if i % 50 == 0:
                        cache.clear()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 128
