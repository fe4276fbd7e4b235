"""The serving layer: cached, batched, thread-safe query evaluation.

* :mod:`repro.service.cache` -- :class:`LRUCache`, the one-lock LRU map
  behind the prepared-query, posting and result caches.
* :mod:`repro.service.service` -- :class:`QueryService`, which wraps one
  open index -- plain, sharded or live -- and serves repeated and
  concurrent queries through caches of its own, including the batch API
  :meth:`QueryService.run_many`.  What it caches of a part of the index is
  tagged with the part's tag, so a live index needs no service of its own.
"""

from repro.service.cache import CacheStats, LRUCache
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
    "CacheStats",
]
