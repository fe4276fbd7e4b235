"""The benchmark's own in-memory spans, recorded around public calls.

A span is ``[name, start, end, parent, qid, slice]``: *parent* is the row
index of the enclosing span (-1 for a root), *qid* identifies the query or
operation all spans of one request share, and *slice* indexes
:attr:`SpanLog.factors`, the host-speed factor (see
:mod:`perfbench.hostclock`) of the measured slice the span began in.  Rows
stay in memory until the run ends and are then written to
``perfbench/out/TRACE_<workload>.json``.

A span's *self time* is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

NAME, START, END, PARENT, QID, SLOT = range(6)


class _Span:
    __slots__ = ("log", "row")

    def __init__(self, log: "SpanLog", row: int):
        self.log = log
        self.row = row

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        log = self.log
        log.rows[self.row][END] = time.perf_counter()
        log._open.pop()


class SpanLog:
    """An append-only list of spans with a stack of the currently open ones."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        #: Host-speed factor per measured slice; rows point here by slot.
        self.factors: List[float] = []
        self._open: List[int] = []

    def span(self, name: str, qid: int) -> _Span:
        """Open a span nested under the innermost open one (use with ``with``)."""
        row = len(self.rows)
        parent = self._open[-1] if self._open else -1
        self._open.append(row)
        self.rows.append([name, time.perf_counter(), 0.0, parent, qid, len(self.factors)])
        return _Span(self, row)

    def add(self, name: str, start: float, end: float, parent: int, qid: int) -> int:
        """Write down a finished span; returns its row.  A child takes the
        factor slot of its *parent* (it may be added after the slice closed)."""
        slot = self.rows[parent][SLOT] if parent >= 0 else len(self.factors)
        self.rows.append([name, start, end, parent, qid, slot])
        return len(self.rows) - 1

    def close_slice(self, factor: float) -> None:
        """Fix the factor of every span opened since the previous call."""
        self.factors.append(factor)

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (span count, summed normalised self seconds)``."""
        covered = [0.0] * len(self.rows)
        for row in self.rows:
            if row[PARENT] >= 0:
                covered[row[PARENT]] += row[END] - row[START]
        totals: Dict[str, Tuple[int, float]] = {}
        for row, inside in zip(self.rows, covered):
            count, seconds = totals.get(row[NAME], (0, 0.0))
            own = (row[END] - row[START] - inside) * self.factors[row[SLOT]]
            totals[row[NAME]] = (count + 1, seconds + own)
        return totals

    def durations(self, name: str) -> List[float]:
        """Normalised durations of every span called *name*."""
        return [
            (row[END] - row[START]) * self.factors[row[SLOT]]
            for row in self.rows
            if row[NAME] == name
        ]
