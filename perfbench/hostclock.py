"""Host-speed calibration: a fixed reference kernel timed between slices of work.

This two-core VM flips between a fast and a ~1.4x slower state every
100 ms or so (a neighbour on the sibling thread), and the share of slow
time drifts from 20% to 80% -- or sticks at 100% -- over tens of seconds.
No statistic taken inside one 20 s run removes that; the same code then
reads 15-40% apart from run to run.  What can be measured is how fast the
host is *right now*: one "tick" is a fixed piece of benchmark-owned Python
with the program's instruction mix -- decode bytes into small records,
group them in dicts, nested-loop merge with dict copies, fingerprint into a
set (~8 ms).  The measured work is cut into slices of ~40 ms with a tick
between them, and each slice's times are scaled by ``NOMINAL_TICK_S /
mean(tick before, tick after)``.  On a quiet reference host the factor is 1
and the values are plain seconds; on a slow stretch both the work and the
tick slow down and the ratio holds.

Ticks are taken by the process that runs the benchmark, never by a process
that runs the program (a *leg* or its server child, which ask for them over
their pipes through :class:`RemoteClock`).  The two are pinned to the same CPU, so the
tick sees the host the work sees, but the heap the tick allocates in is one
the program never touches: a change that fragments the program's heap or
grows its collector's load cannot slow the yardstick it is measured with,
and the tick's own allocations cannot disturb the program's.

The kernel never changes (a change would re-base every metric), touches no
program code, runs with the collector off (it makes no cycles; a
collection landing inside a tick would be noise), and keeps its working set
near that of one query (~4 k records).
"""

from __future__ import annotations

import gc
import random
import time
from typing import Callable, TextIO

#: One tick on the quiet host (fast state) the bounds were set on.
NOMINAL_TICK_S = 0.0075

_BUFFER = random.Random(20120801).randbytes(16000)


class _Record:
    __slots__ = ("tid", "pre", "post", "level")

    def __init__(self, tid: int, pre: int, post: int, level: int):
        self.tid = tid
        self.pre = pre
        self.post = post
        self.level = level


def _churn() -> int:
    data = _BUFFER
    records = []
    tid = 0
    for offset in range(0, len(data), 4):
        tid += data[offset] & 3
        pre = data[offset + 1]
        records.append(_Record(tid, pre, pre + data[offset + 2], data[offset + 3] & 7))
    by_tid: dict = {}
    for record in records:
        by_tid.setdefault(record.tid, []).append({1: record})
    joined = []
    for tid, bindings in by_tid.items():
        for left in bindings:
            outer = left[1]
            for right in bindings:
                inner = right[1]
                if outer.pre <= inner.pre and outer.post >= inner.post:
                    merged = dict(left)
                    merged[2] = inner
                    joined.append((tid, merged))
    distinct = {
        (tid, tuple(sorted((node, record.pre) for node, record in binding.items())))
        for tid, binding in joined
    }
    return len(distinct)


def tick() -> float:
    """Time one run of the reference kernel in this process."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _churn()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Multiplier that maps wall time between two ticks to nominal time."""
    return NOMINAL_TICK_S / ((before + after) / 2.0)


#: What a leg writes on its request pipe to have one tick taken.
TICK_REQUEST = "tick\n"


class RemoteClock:
    """The asking end: every tick is run by the process on the other side."""

    def __init__(self, requests: TextIO, replies: TextIO):
        self._requests = requests
        self._replies = replies

    def tick(self) -> float:
        self._requests.write(TICK_REQUEST)
        self._requests.flush()
        reply = self._replies.readline()
        if not reply:
            raise RuntimeError("the benchmark process closed the tick pipe")
        return float(reply)


def serve_ticks(requests: TextIO, replies: TextIO, tick: Callable[[], float]) -> str:
    """The answering end: take a *tick* for every request read, until the
    other side writes anything else; that line is returned (``""`` at EOF)."""
    for line in iter(requests.readline, ""):
        if line != TICK_REQUEST:
            return line
        replies.write(f"{tick()!r}\n")
        replies.flush()
    return ""
