"""Index statistics backing the index-characterisation experiments.

Figures 2, 3, 8, 9, 10 and Table 1 of the paper describe the *index itself*
(number of unique keys, number of postings, bytes on disk, build time) rather
than query behaviour.  A built index reports its own (its metadata and
``size_bytes``); this module computes them directly from a corpus without
materialising an index (used for the cheap key-count sweeps).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.coding.base import get_coding
from repro.core.enumeration import extract_root_texts, number
from repro.core.index import numbered, tree_rows
from repro.trees.node import ParseTree


def count_unique_keys(trees: Iterable[ParseTree], mss_values: Sequence[int]) -> Dict[int, int]:
    """Count unique subtrees (index keys) for several ``mss`` values at once.

    This is the quantity plotted in Figure 2.  Keys are counted in a single
    pass with the largest ``mss``: a key of size *s* is a key for every
    ``mss >= s``, so the per-``mss`` counts are cumulative over key sizes.
    """
    max_mss = max(mss_values)
    keys_by_size: Dict[int, set] = {size: set() for size in range(1, max_mss + 1)}
    for tree in trees:
        for found in extract_root_texts(number(tree), max_mss):
            for text, size in found.items():
                keys_by_size[size].add(text)
    return {mss: sum(len(keys_by_size[size]) for size in range(1, mss + 1)) for mss in mss_values}


def count_postings(
    trees: Iterable[ParseTree], mss: int, coding_names: Sequence[str]
) -> Dict[str, int]:
    """Total number of postings each coding scheme would store (Figure 9).

    Computed without building the index files: each row every coding yields
    for a tree (:func:`repro.core.index.tree_rows`, what a build writes) is
    counted once for each key whose list it is stored on.
    """
    codings = [get_coding(name) for name in coding_names]
    totals: Dict[str, int] = {name: 0 for name in coding_names}
    for tid, numbering in numbered(trees):
        for coding in codings:
            totals[coding.name] += sum(len(keys) for _, keys in tree_rows(tid, numbering, mss, coding))
    return totals
