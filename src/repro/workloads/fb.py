"""The FB query set (Section 6.1).

The FB queries are subtrees extracted from parse trees that are *not* part of
the indexed corpus, grouped by the frequency class of their node labels:
high (H), medium (M), low (L) and the mixed classes HM, HL, ML and HML.
For each of the seven classes the paper builds 10 subtrees of sizes 1 to 10.

This module reproduces that construction: label frequency classes are
computed from the indexed corpus, candidate subtrees are harvested from a
held-out generated corpus, classified and sampled per (class, size) cell.
Queries with canonically identical sibling subtrees are skipped
(:func:`repro.query.model.has_duplicate_siblings` says why).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.query.model import QueryTree, has_duplicate_siblings, query_from_node
from repro.trees.node import Node, ParseTree
from repro.trees.stats import corpus_stats

#: The seven frequency classes of Table 2, in the paper's display order.
FREQUENCY_CLASSES = ("L", "M", "ML", "H", "HL", "HM", "HML")


@dataclass(frozen=True)
class FBQuery:
    """One FB query: frequency class, target size and the query tree."""

    frequency_class: str
    size: int
    query: QueryTree

    @property
    def text(self) -> str:
        """The query rendered in the textual query syntax."""
        return self.query.to_string()


@dataclass
class FBQuerySet:
    """The generated FB workload, indexable by frequency class."""

    queries: List[FBQuery] = field(default_factory=list)

    def by_class(self, frequency_class: str) -> List[FBQuery]:
        """All queries of one frequency class."""
        return [query for query in self.queries if query.frequency_class == frequency_class]

    def classes(self) -> List[str]:
        """Frequency classes present in the set, in canonical order."""
        present = {query.frequency_class for query in self.queries}
        return [name for name in FREQUENCY_CLASSES if name in present]

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)


def _classes_of_subtree(node: Node, label_classes: Dict[str, str]) -> Set[str]:
    """The set of frequency classes of the labels of a subtree."""
    return {label_classes.get(label, "L") for label in node.labels()}


def _candidate_subtrees(trees: Iterable[ParseTree], max_size: int) -> List[Node]:
    """All internal-node-rooted subtrees of the held-out trees up to *max_size* nodes."""
    candidates: List[Node] = []
    for tree in trees:
        for node in tree.preorder():
            if 1 <= node.size() <= max_size:
                candidates.append(node)
    return candidates


def generate_fb_queries(
    indexed_trees: Sequence[ParseTree],
    held_out_trees: Sequence[ParseTree],
    max_size: int = 10,
    per_class: int = 10,
    seed: int = 0,
    classes: Sequence[str] = FREQUENCY_CLASSES,
) -> FBQuerySet:
    """Build the FB query set.

    Parameters
    ----------
    indexed_trees:
        The corpus the index is built over; label frequency classes come from
        its label statistics.
    held_out_trees:
        Trees not included in the index; query subtrees are extracted here.
    max_size:
        Largest query size (the paper uses 10).
    per_class:
        Number of queries per frequency class, one per size ``1..per_class``.
    """
    label_classes = corpus_stats(indexed_trees).label_frequency_classes()
    rng = random.Random(seed)

    # Bucket candidate subtrees by (frequency-class signature, size).
    buckets: Dict[Tuple[str, int], List[Node]] = {}
    for node in _candidate_subtrees(held_out_trees, max_size):
        signature = "".join(sorted(_classes_of_subtree(node, label_classes)))
        signature = _canonical_class_name(signature)
        buckets.setdefault((signature, node.size()), []).append(node)

    queries: List[FBQuery] = []
    for frequency_class in classes:
        sizes = list(range(1, per_class + 1))
        for size in sizes:
            node = _pick_candidate(buckets, frequency_class, size, max_size, rng)
            if node is None:
                continue
            query = QueryTree(query_from_node(node))
            queries.append(FBQuery(frequency_class=frequency_class, size=query.size(), query=query))
    return FBQuerySet(queries=queries)


def _canonical_class_name(signature: str) -> str:
    """Normalise a sorted class signature ('HLM') to the paper's names ('HML')."""
    has_h = "H" in signature
    has_m = "M" in signature
    has_l = "L" in signature
    name = ("H" if has_h else "") + ("M" if has_m else "") + ("L" if has_l else "")
    return name


def _pick_candidate(
    buckets: Dict[Tuple[str, int], List[Node]],
    frequency_class: str,
    size: int,
    max_size: int,
    rng: random.Random,
) -> Optional[Node]:
    """Pick a subtree of the requested class, preferring the requested size.

    When no candidate of the exact size exists, nearby sizes are tried so the
    workload still has ``per_class`` queries per class; duplicate-sibling
    subtrees are skipped.
    """
    for candidate_size in sorted(range(1, max_size + 1), key=lambda s: abs(s - size)):
        candidates = buckets.get((frequency_class, candidate_size), [])
        if not candidates:
            continue
        order = list(range(len(candidates)))
        rng.shuffle(order)
        for index in order:
            node = candidates[index]
            if not has_duplicate_siblings(query_from_node(node)):
                return node
    return None
