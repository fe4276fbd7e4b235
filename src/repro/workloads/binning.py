"""Grouping query results for the Figure 11 and Figure 12 reports.

Figure 11 bins queries by their total number of matches: fewer than 10,
10--100, 100--1k, 1k--10k and more than 10k.  Figure 12 groups queries by
their size (number of query nodes), restricted to queries with at least 100
matches.  Both groupings are provided here so the benchmark harness and the
report printer share one definition.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: The match-count bins of Figure 11 as (label, inclusive lower, exclusive upper).
MATCH_BINS: Tuple[Tuple[str, int, float], ...] = (
    ("<10", 0, 10),
    ("10-100", 10, 100),
    ("100-1k", 100, 1_000),
    ("1k-10k", 1_000, 10_000),
    (">10k", 10_000, float("inf")),
)


def bin_for_match_count(match_count: int) -> str:
    """The Figure 11 bin label for a query with *match_count* matches."""
    if match_count < 0:
        raise ValueError("match counts cannot be negative")
    for label, low, high in MATCH_BINS:
        if low <= match_count < high:
            return label
    return MATCH_BINS[-1][0]  # pragma: no cover - unreachable


def group_by_query_size(
    entries: Iterable[Tuple[int, int, float]],
    min_matches: int = 100,
) -> Dict[int, List[float]]:
    """Group ``(query_size, match_count, runtime)`` triples by query size.

    Only queries with at least *min_matches* matches are retained, mirroring
    Figure 12's restriction to queries with 100 or more matches.
    """
    grouped: Dict[int, List[float]] = defaultdict(list)
    for size, match_count, runtime in entries:
        if match_count >= min_matches:
            grouped[size].append(runtime)
    return dict(sorted(grouped.items()))


def average(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence (0.0 for an empty one)."""
    return sum(values) / len(values) if values else 0.0
