"""The LRU cache of the serving layer.

:class:`LRUCache` is a single ordered map guarded by one lock (``get`` /
``get_tagged`` / ``peek`` / ``put`` / ``clear`` plus hit/miss/eviction
counters); recency is updated on every hit, eviction removes the least
recently used entry.  The :class:`~repro.service.service.QueryService` keeps
three: in front of query preparation, of the index's part lookups and of the
join.  It treats ``None`` as a legitimate cached value, which is why
:meth:`~LRUCache.get` takes an explicit *default*.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache."""

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
