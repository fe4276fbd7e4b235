"""Unit tests for the serving-layer LRU caches."""

from __future__ import annotations

import threading

import pytest

from repro.service.cache import CacheStats, LRUCache, StripedLRUCache


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


class TestStripedLRUCache:
    def test_protocol_round_trip(self) -> None:
        # Int keys: hash(i) == i puts ten in each stripe of sixteen whatever
        # PYTHONHASHSEED is (str keys overflowed a stripe once in ~60 seeds).
        cache = StripedLRUCache(64, stripes=4)
        for i in range(40):
            cache.put(i, str(i))
        assert all(cache.get(i) == str(i) for i in range(40))
        assert len(cache) == 40
        cache.put(7, ("tag", "seven"))
        assert cache.get_tagged(7, "tag") == "seven" and cache.get_tagged(7, "other") is None
        cache.clear()
        assert len(cache) == 0

    def test_a_stripe_evicts_at_its_share_of_the_capacity(self) -> None:
        cache = StripedLRUCache(64, stripes=4)
        for i in range(0, 68, 4):  # seventeen keys, all of stripe 0
            cache.put(i, i)
        assert len(cache) == 16  # a quarter of 64, not 64
        assert 0 not in cache and all(i in cache for i in range(4, 68, 4))
        assert cache.stats().evictions == 1

    def test_stats_aggregate_over_stripes(self) -> None:
        cache = StripedLRUCache(64, stripes=4)
        for i in range(10):
            cache.put(i, i)
        for i in range(10):
            assert cache.get(i) == i
        cache.get("missing")
        stats = cache.stats()
        assert stats.hits == 10
        assert stats.misses == 1
        assert stats.size == 10
        assert stats.capacity == 64

    def test_capacity_is_split_across_stripes(self) -> None:
        cache = StripedLRUCache(8, stripes=4)
        assert cache.stats().capacity == 8
        tiny = StripedLRUCache(2, stripes=8)  # fewer stripes, never more entries
        assert tiny.stats().capacity == 2
        assert tiny.stripe_count == 2

    def test_stripe_count_validation(self) -> None:
        with pytest.raises(ValueError):
            StripedLRUCache(8, stripes=0)
        with pytest.raises(ValueError):
            StripedLRUCache(0, stripes=4)

    def test_concurrent_mixed_operations_are_safe(self) -> None:
        cache = StripedLRUCache(128, stripes=8)
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


class TestCacheStats:
    def test_addition(self) -> None:
        total = CacheStats(hits=1, misses=2, evictions=3, size=4, capacity=5) + CacheStats(
            hits=10, misses=20, evictions=30, size=40, capacity=50
        )
        assert (total.hits, total.misses, total.evictions) == (11, 22, 33)
        assert (total.size, total.capacity) == (44, 55)
