"""Structural merge joins over posting lists.

The subtree index stores posting lists sorted by tree identifier, so every
join in the system is a merge join on ``tid`` followed by the evaluation of
structural predicates within each tree -- the shape of the
Multi-Predicate MerGe JoiN (MPMGJN) the paper adopts off the shelf
(Section 2).  Two entry points are provided:

* :func:`intersect_sorted_tid_lists` -- k-way intersection of tid lists:
  the whole join phase of the filter-based coding, and the first step of
  the kernel below;
* :func:`run_plan` -- executes a :class:`~repro.exec.plan.JoinPlan` over
  posting *columns* with the kernel generated for its shape
  (:mod:`repro.exec.codegen`) and returns the distinct query-root matches
  per tree.  At ``mss = 1`` every relation is one query node's
  single-slot list: the paper's node approach (Section 6.3.1).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.exec.codegen import compile_kernel
from repro.exec.plan import JoinPlan

#: Beyond this length ratio the longer list is probed by bisection instead
#: of being scanned.
GALLOP_SKEW = 8


# ----------------------------------------------------------------------
# Tid-list intersection
# ----------------------------------------------------------------------
def intersect_sorted_tid_lists(lists: Sequence[Sequence[int]]) -> List[int]:
    """Intersect several ascending tid lists (repeated tids allowed).

    The shortest list drives the intersection.  Returns the ascending
    distinct tids present in all lists.
    """
    if not lists or not all(len(single) for single in lists):
        return []
    ordered = sorted(lists, key=len)
    result = list(dict.fromkeys(ordered[0]))
    for other in ordered[1:]:
        result = _intersect_two(result, other)
        if not result:
            break
    return result


def _intersect_two(short: Sequence[int], long: Sequence[int]) -> List[int]:
    """The tids of *short* (distinct, ascending) that occur in *long*.

    When the lengths are skewed *long* is galloped through: one bisection
    per tid of *short*, each starting where the previous one ended.
    """
    if len(long) <= GALLOP_SKEW * len(short):
        members = set(long)
        return [tid for tid in short if tid in members]
    out: List[int] = []
    at, end = 0, len(long)
    for tid in short:
        at = bisect_left(long, tid, at)
        if at == end:
            break
        if long[at] == tid:
            out.append(tid)
    return out


# ----------------------------------------------------------------------
# Running a plan (root-split and subtree-interval codings)
# ----------------------------------------------------------------------
def count_distinct_roots(pairs: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """Matches per tree from tid-ascending ``(tid, root pre)`` pairs.

    A match is a distinct binding of the query root, so repeated pairs
    (several embeddings below one root) count once.
    """
    counts: Dict[int, int] = {}
    for tid, _ in dict.fromkeys(pairs):
        counts[tid] = counts.get(tid, 0) + 1
    return counts


def run_plan(plan: JoinPlan) -> Dict[int, int]:
    """Execute *plan* and return the number of matches per tree.

    Only trees whose tid occurs in *every* relation are handed to the plan's
    kernel (:mod:`repro.exec.codegen`), where each relation's rows of a tree
    are one contiguous range of its columns and bindings grow in join order.
    """
    steps = plan.steps
    if not steps:
        return {}
    tids = [plan.relations[step.relation].columns.tids for step in steps]
    columns = [column for step in steps for column in step.columns]
    return compile_kernel(plan.shape)(intersect_sorted_tid_lists(tids), tids, columns)
