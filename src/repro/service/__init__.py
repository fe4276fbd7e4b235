"""The serving layer: cached, batched, thread-safe query evaluation.

* :mod:`repro.service.cache` -- the LRU primitives: a single-lock
  :class:`LRUCache` and the lock-striped :class:`StripedLRUCache` used for
  both the prepared-query cache and the posting cache.
* :mod:`repro.service.service` -- :class:`QueryService`, which wraps one
  open index -- plain, sharded or live -- and serves repeated and
  concurrent queries through those caches, including the batch API
  :meth:`QueryService.run_many`.  Results are tagged with the index's
  version, so a live index needs no service of its own.
"""

from repro.service.cache import CacheStats, LRUCache, StripedLRUCache
from repro.service.service import PreparedQuery, QueryService, ServiceStats

#: The benchmark under ``perfbench/`` (frozen) imports and constructs this
#: name; a live index is served by the one ``QueryService``.
LiveQueryService = QueryService

__all__ = [
    "QueryService",
    "LiveQueryService",
    "PreparedQuery",
    "ServiceStats",
    "LRUCache",
    "StripedLRUCache",
    "CacheStats",
]
