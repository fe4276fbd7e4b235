"""perfbench: the repository's benchmark (see ``perfbench/README.md``).

Four workloads over the subtree index -- executor joins, executor point
lookups, cached HTTP serving and a mixed read/write live index -- each
checked against an independent oracle, each reporting the same six
end-to-end metrics (``--trace 0``) or the per-layer attribution
(``--trace 1``).  ``BENCHMARK.json`` at the repository root is the contract.

The benchmark calls the program only through its public functions and is
stdlib-only.  It runs from a checkout: the program is imported from the
``src/`` directory next to this package, never from an installed copy.
"""

import sys
from pathlib import Path

#: The checkout this package sits in; the program lives in ``ROOT / "src"``.
ROOT = Path(__file__).resolve().parent.parent

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
