"""The independent oracle: brute-force match counts per (query, tree).

The table is computed once, outside every timed region, with the exact
matcher of :mod:`repro.trees.matching` -- the paper's Definition 3, which
shares no code with the index, the codings or the joins.  Every answer the
benchmark receives, on every workload, is compared to it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro import ParseTree, parse_query
from repro.trees.matching import count_matches


class Oracle:
    """``query text -> {tid: matches}`` over every tree a run can ever hold."""

    def __init__(self, queries: Sequence[str], trees: Iterable[ParseTree]):
        parsed = [(text, parse_query(text).root) for text in queries]
        self.table: Dict[str, Dict[int, int]] = {text: {} for text in queries}
        self.nodes: Dict[int, int] = {}
        for tree in trees:
            self.nodes[tree.tid] = tree.size()
            for text, root in parsed:
                count = count_matches(root, tree)
                if count:
                    self.table[text][tree.tid] = count

    def expected(self, query: str, live: Optional[Set[int]] = None) -> Dict[int, int]:
        """Matches per tree for *query*, restricted to the *live* tids if given."""
        row = self.table[query]
        if live is None:
            return row
        return {tid: count for tid, count in row.items() if tid in live}

    def total(self, live: Optional[Set[int]] = None) -> int:
        """Matches summed over all queries (the run's deterministic checksum)."""
        return sum(sum(self.expected(text, live).values()) for text in self.table)


def answer_is_correct(
    expected: Mapping[int, int], total_matches: object, matches_per_tree: object
) -> bool:
    """Both fields of an answer agree with the oracle row."""
    return matches_per_tree == expected and total_matches == sum(expected.values())


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(what)
        return ok
