"""What a leg measures with: the plan, the slicing recorder, the pass loop.

Operation counts are fixed by the :class:`Plan`, never by a deadline, so
two runs of one seed do exactly the same work.  Timed work is cut into
slices with a tick of the reference kernel between them
(:mod:`perfbench.hostclock`) and reported in host-normalised seconds; the
raw wall-clock values are kept beside them.
"""

from __future__ import annotations

import gc
import math
import resource
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from perfbench import hostclock
from perfbench.hostclock import RemoteClock
from perfbench.spans import SpanLog

#: ``--seconds`` at which a plan runs its full group counts.
BASE_SECONDS = 20


@dataclass(frozen=True)
class Plan:
    """How much work one run does: all counts, no durations.

    A run is ``legs`` processes, each of which sets the flavor up once,
    warms up, and measures ``groups`` groups of ``passes_per_group`` passes.
    """

    sentences: int
    legs: int
    warmup_passes: int
    groups: int
    passes_per_group: int

    def scaled(self, seconds: int, trace: bool) -> "Plan":
        """The plan for ``--seconds``; a traced run measures a third of the groups
        (first untraced, then traced)."""
        groups = max(1, round(self.groups * seconds / BASE_SECONDS))
        if trace:
            groups = max(1, groups // 3)
        return Plan(self.sentences, self.legs, self.warmup_passes, groups, self.passes_per_group)


class Recorder:
    """One measured phase, cut into host-normalised slices.

    A pass reports each verified query with :meth:`sample` (and work that
    yields no latency sample with :meth:`mark`); once ``SLICE_SECONDS`` of
    work have gone by, the slice is cut.  A cut takes a tick of the
    reference kernel and scales the slice's wall time and samples by the
    factor of the ticks on either side (spans opened during the slice, if a
    *log* is given, get the same factor).  Ticks are outside every wall
    time, and where they fall changes no operation the program is asked to do.
    """

    #: Work between two ticks: well under the ~100 ms the host stays in one state.
    SLICE_SECONDS = 0.040

    def __init__(self, clock: RemoteClock, log: Optional[SpanLog] = None):
        self.clock = clock
        self.log = log
        #: Normalised wall seconds per group, and the raw ones beside them.
        self.walls: List[float] = []
        self.raw_walls: List[float] = []
        #: Normalised seconds of every verified query, and the raw ones.
        self.samples: List[float] = []
        self.raw_samples: List[float] = []
        self._pending: List[float] = []
        self._group_wall = self._raw_group_wall = 0.0
        self._before = clock.tick()
        self._slice_started = time.perf_counter()

    def sample(self, seconds: float) -> None:
        self._pending.append(seconds)
        self.mark()

    def mark(self) -> None:
        if time.perf_counter() - self._slice_started >= self.SLICE_SECONDS:
            self.cut()

    def cut(self) -> None:
        wall = time.perf_counter() - self._slice_started
        after = self.clock.tick()
        factor = hostclock.factor(self._before, after)
        self._before = after
        self._raw_group_wall += wall
        self._group_wall += wall * factor
        self.raw_samples.extend(self._pending)
        self.samples.extend(seconds * factor for seconds in self._pending)
        self._pending.clear()
        if self.log is not None:
            self.log.close_slice(factor)
        self._slice_started = time.perf_counter()

    def end_group(self) -> None:
        self.cut()
        self.walls.append(self._group_wall)
        self.raw_walls.append(self._raw_group_wall)
        self._group_wall = self._raw_group_wall = 0.0


class SetupStopwatch:
    """Slices work that reports nothing while it runs: a set-up.

    An interval timer cuts the slice (and has a tick taken) every
    ``INTERVAL`` seconds, in the main thread, between two bytecodes of
    whatever the program is doing; a stage of the set-up ends with
    :meth:`end_stage`.  The recorder's groups are then the stages.
    """

    #: A slice of work plus the tick that closes it.
    INTERVAL = Recorder.SLICE_SECONDS + hostclock.NOMINAL_TICK_S

    def __init__(self, clock: RemoteClock):
        self.recorder = Recorder(clock)
        self._cutting = False

    def __enter__(self) -> "SetupStopwatch":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, signum: int, frame: object) -> None:
        if not self._cutting:  # a signal that lands inside a cut is dropped
            self._guarded(self.recorder.cut)

    def end_stage(self) -> None:
        self._guarded(self.recorder.end_group)

    def _guarded(self, close: Callable[[], None]) -> None:
        self._cutting = True
        try:
            close()
        finally:
            self._cutting = False


def group_seconds(walls: List[float]) -> float:
    """Mean of the middle half of the group walls: as deaf to a stalled
    group as the median, but it moves smoothly when the groups fall into
    clusters (one per leg)."""
    ordered = sorted(walls)
    trim = len(ordered) // 4
    return statistics.fmean(ordered[trim : len(ordered) - trim])


def percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def measure(
    plan: Plan,
    run_pass: Callable[[Recorder], None],
    clock: RemoteClock,
    log: Optional[SpanLog] = None,
) -> Recorder:
    """Run ``plan.groups`` x ``plan.passes_per_group`` passes through a recorder."""
    gc.collect()
    recorder = Recorder(clock, log)
    for _ in range(plan.groups):
        for _ in range(plan.passes_per_group):
            run_pass(recorder)
        recorder.end_group()
    return recorder


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
