"""The join kernel as generated code: one nested-loop function per plan shape.

:func:`kernel_source` turns a plan's *shape* -- integers only: per step the
column count and the predicates of its :class:`~repro.exec.plan.JoinStep`,
then the offset of the query root's pre -- into the source of
``kernel(common, tids, columns)``: ``for tid in common:`` around one ``for``
per step over that tree's rows of the step's relation, every predicate a
literal conjunct over locals and the tree's distinct root bindings counted in
the innermost body (``docs/architecture.md`` annotates one).  CPython rejects
more than 20 statically nested blocks, so every further :data:`MAX_LOOPS`
steps go into a *chained* function: a nested ``def``, a code object with a
block count of its own, called from the innermost body of the steps before.

:func:`compile_kernel` keeps the functions in a bounded table.  It caches
code, as ``re`` does: keyed by the shape, it holds no query text, posting or
result, and serves a query never seen before whose plan has a seen shape.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import chain
from typing import Callable, Dict, List, Tuple

#: ``((columns, equal, checks, distinct) per step, root offset)``.
Shape = Tuple[Tuple[Tuple[int, tuple, tuple, tuple], ...], int]

#: Steps per generated function: CPython's 20 blocks less the ``for tid`` loop, with room to spare.
MAX_LOOPS = 16


def kernel_source(shape: Shape) -> str:
    """Source of the kernel for *shape*, assembled from its integers alone."""
    steps, root = shape
    reads = {root}
    for _, equal, checks, distinct in steps:
        reads.update(chain.from_iterable(equal + distinct))
        for upper, lower, child in checks:
            reads.update(range(upper, upper + 2 + child), range(lower, lower + 2 + child))
    # What the kernel sets to 0: every cursor, then the values chained functions bind.
    names = [f"lo{number}" for number in range(len(steps))]
    functions: List[List[str]] = []  # the main loop's body, then each chained function
    offset = 0
    for number, (width, equal, checks, distinct) in enumerate(steps):
        pad = "    " * (number % MAX_LOOPS + 2)
        if number % MAX_LOOPS == 0:
            if number:  # out of blocks: the loops go on in a function of their own
                functions[-1].append(f"{'    ' * (MAX_LOOPS + 2)}part{number}()")
            functions.append([])
        lines = functions[-1]
        loads = [at for at in range(offset, offset + width) if at in reads]
        offset += width
        tests = [f"v{bound} == v{candidate}" for bound, candidate in equal]
        for upper, lower, child in checks:
            tests.append(f"v{upper} < v{lower} and v{upper + 1} > v{lower + 1}")
            if child:
                tests.append(f"v{upper + 2} + 1 == v{lower + 2}")
        tests += [f"v{first} != v{second}" for first, second in distinct]
        lines += [
            f"{pad}lo{number} = bisect_left(t{number}, tid, lo{number})",
            f"{pad}for i{number} in range(lo{number}, bisect_right(t{number}, tid, lo{number})):",
            *(f"{pad}    v{at} = c{at}[i{number}]" for at in loads),
        ]
        if tests:
            lines.append(f"{pad}    if not ({' and '.join(tests)}): continue")
        if number >= MAX_LOOPS:  # a chained function's values outlive its calls
            names += [f"v{at}" for at in loads]
    functions[-1].append(f"{pad}    roots.add(v{root})")
    shared = f"        nonlocal {', '.join(names[MAX_LOOPS:])}"
    chained = [
        [f"    def part{at * MAX_LOOPS}():", shared, *lines] for at, lines in enumerate(functions[1:], 1)
    ]
    return "\n".join([
        "def kernel(common, tids, columns):",
        f"    {', '.join(f't{number}' for number in range(len(steps)))}, = tids",
        *(f"    c{at} = columns[{at}]" for at in sorted(reads)),
        f"    {' = '.join(names)} = 0",
        "    counts, roots = {}, set()",
        *chain.from_iterable(chained),
        "    for tid in common:",
        *functions[0],
        "        if roots:",
        "            counts[tid] = len(roots)",
        "            roots.clear()",
        "    return counts",
        "",
    ])


@lru_cache(maxsize=512)  # re's bound; a kernel is a few KB of code
def compile_kernel(shape: Shape) -> Callable[..., Dict[int, int]]:
    """The compiled kernel of *shape*, with its text as ``kernel.source``."""
    source = kernel_source(shape)
    namespace = {"bisect_left": bisect_left, "bisect_right": bisect_right}
    exec(compile(source, "<join kernel>", "exec"), namespace)
    kernel = namespace["kernel"]
    kernel.source = source
    return kernel
