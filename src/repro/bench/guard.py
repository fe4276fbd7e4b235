"""The shared CI / low-core guard for timing-sensitive benchmark assertions.

Several benchmarks gate wall-clock *ordering* assertions (speedup bars,
system-vs-system latency ratios) behind the same two conditions:

* shared CI runners (GitHub sets ``CI=true``) are too noisy and throttled
  to gate a hardware-sensitive wall-clock ratio on, and
* boxes with too few cores cannot physically show parallel speedups, and
  any concurrent load lands on the measured core.

Correctness and completeness assertions (match totals, every system
measured on every class) never go through this guard -- they hold on any
machine.  The measured numbers are always recorded in the run's
artefacts either way.
"""

from __future__ import annotations

import os

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
