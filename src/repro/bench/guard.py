"""The shared CI / low-core guard for timing-sensitive benchmark assertions.

Wall-clock *ordering* bars (speedups, latency ratios) are enforced only off
shared CI runners (GitHub sets ``CI=true``; too noisy and throttled) and on
boxes with enough cores to show a parallel speedup, where concurrent load
does not land on the measured core.  Correctness assertions never go through
this guard, and the measured numbers are recorded either way.  The two sides
of a ratio are measured in alternating rounds (:func:`alternating_minimums`).
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence

#: Default core floor: on a 1-CPU box any concurrent load (the rest of the
#: suite, the host) lands on the measured core.
DEFAULT_MIN_CORES = 2


def timing_bars_enabled(min_cores: int = DEFAULT_MIN_CORES) -> bool:
    """Whether timing-ratio assertions should be enforced on this machine.

    False under CI (``CI`` environment variable set to a non-empty value)
    or when fewer than *min_cores* cores are available.
    """
    if os.environ.get("CI"):
        return False
    return (os.cpu_count() or 1) >= min_cores


def alternating_minimums(sides: Sequence[Callable[[], float]], rounds: int = 5) -> List[float]:
    """The fastest time each of *sides* returned, run in turn for *rounds*
    rounds: a burst of load slows one round of one side, not the ratio."""
    best = [float("inf")] * len(sides)
    for _ in range(rounds):
        for at, side in enumerate(sides):
            best[at] = min(best[at], side())
    return best
