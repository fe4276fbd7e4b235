"""LRU caches for the serving layer.

Two implementations share one protocol (``get`` / ``get_tagged`` / ``peek``
/ ``put`` / ``clear`` plus hit/miss/eviction counters):

:class:`LRUCache`
    a single ordered map guarded by one lock; recency is updated on every
    hit, eviction removes the least recently used entry.

:class:`StripedLRUCache`
    N independent :class:`LRUCache` stripes selected by key hash, so
    concurrent readers on different stripes never contend on one lock.  This
    is the cache the :class:`~repro.service.service.QueryService` installs in
    front of the B+Tree and in front of query preparation.

Both treat ``None`` as a legitimate cached value (a key known to be absent
from the index), which is why :meth:`get` takes an explicit *default*.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache (or an aggregate of stripes)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when never probed)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            size=self.size + other.size,
            capacity=self.capacity + other.capacity,
        )


class LRUCache:
    """A thread-safe least-recently-used map with a bounded entry count."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: object = None) -> object:
        """Return the cached value (refreshing its recency) or *default*."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def get_tagged(self, key: Hashable, tag: object) -> object:
        """The value of a ``(tag, value)`` entry put under *key* with *tag*,
        else ``None``; an entry with another tag counts as a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != tag:  # type: ignore[index]
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[1]  # type: ignore[index]

    def peek(self, key: Hashable, default: object = None) -> object:
        """The cached value or *default*, leaving recency and counters alone."""
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh *key*, evicting the LRU entry when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = value

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> List[Hashable]:
        """Current keys from least to most recently used."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> CacheStats:
        """A snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )


class StripedLRUCache:
    """An LRU cache sharded into independently locked stripes.

    Keys are distributed by hash; each stripe gets an equal share of the
    total capacity (a capacity smaller than the stripe count reduces the
    stripe count rather than inflating the capacity).  All protocol methods
    simply delegate to the owning stripe, so the cost of thread safety is
    one uncontended lock acquisition in the common case.
    """

    def __init__(self, capacity: int, stripes: int = 8):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        if stripes < 1:
            raise ValueError("stripe count must be at least 1")
        # Never inflate a small capacity: drop to one stripe per entry
        # rather than padding every stripe up to one entry.  The division
        # remainder is spread over the first stripes so the total is exact.
        stripes = min(stripes, capacity)
        per_stripe, extra = divmod(capacity, stripes)
        self._stripes = [
            LRUCache(per_stripe + (1 if index < extra else 0)) for index in range(stripes)
        ]

    def _stripe_for(self, key: Hashable) -> LRUCache:
        return self._stripes[hash(key) % len(self._stripes)]

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: object = None) -> object:
        return self._stripe_for(key).get(key, default)

    def get_tagged(self, key: Hashable, tag: object) -> object:
        return self._stripe_for(key).get_tagged(key, tag)

    def peek(self, key: Hashable, default: object = None) -> object:
        return self._stripe_for(key).peek(key, default)

    def put(self, key: Hashable, value: object) -> None:
        self._stripe_for(key).put(key, value)

    def clear(self) -> None:
        for stripe in self._stripes:
            stripe.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(stripe) for stripe in self._stripes)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._stripe_for(key)

    @property
    def stripe_count(self) -> int:
        """Number of stripes."""
        return len(self._stripes)

    def stats(self) -> CacheStats:
        """Aggregated counters across all stripes."""
        total = CacheStats()
        for stripe in self._stripes:
            total = total + stripe.stats()
        return total
