"""Query execution over the subtree index.

* :mod:`repro.exec.plan` -- join planning: one relation (posting columns +
  bound query nodes) per cover subtree, a greedy connected join order, and
  a skeleton cached per cover and order: predicates as offsets, the shape.
* :mod:`repro.exec.codegen` -- the join kernel, generated once per plan shape:
  nested loops over per-tree row ranges, distinct-root counting.
* :mod:`repro.exec.joins` -- ``run_plan`` (tid pre-intersection, then the
  plan's kernel) and the galloping sorted tid-list intersection it shares
  with the filter-based coding.
* :mod:`repro.exec.executor` -- the pipeline stages (``decompose_query``,
  ``fetch_postings``, ``join_postings``), the one-shot ``QueryExecutor``
  wrapper around them (including the filtering phase of the filter-based
  coding) and the result/statistics containers.  The stages are separable so
  :mod:`repro.service` can cache and batch them independently.

There is one pipeline for every index: a sharded or live index merges its
sources' posting lists below ``lookup`` (:mod:`repro.core.segments`), so the
stages above never see what the index is made of.
"""

from repro.exec.executor import (
    ExecutionStats,
    QueryExecutor,
    QueryResult,
    decompose_query,
    default_strategy,
    fetch_postings,
    join_postings,
)
from repro.exec.joins import intersect_sorted_tid_lists, run_plan
from repro.exec.plan import JoinPlan, Relation, build_plan, cover_relations

__all__ = [
    "QueryExecutor",
    "QueryResult",
    "ExecutionStats",
    "decompose_query",
    "default_strategy",
    "fetch_postings",
    "join_postings",
    "JoinPlan",
    "Relation",
    "build_plan",
    "cover_relations",
    "run_plan",
    "intersect_sorted_tid_lists",
]
