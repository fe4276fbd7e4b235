"""Every file the write path produces, held to digests pinned from PR 19.

``data/index_digests.json`` was written by running :func:`compute_digests`
on the commit *before* the write path went columnar (tree -> flat record
bodies -> bytes, no posting object in between); do not regenerate it from
the checkout.  A change to extraction, a coding's row order, the body
encoder, ``bulk_load`` or compaction that moves one byte of an index file, a
live segment or its data file fails here.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Dict

import pytest

from repro.core.index import SubtreeIndex
from repro.corpus.generator import CorpusGenerator
from repro.live.live import LiveIndex

CODINGS = ("filter", "root-split", "subtree-interval")
MSS_VALUES = (1, 2, 3, 4, 5)
_SEED, _SENTENCES = 20120803, 200
_PINNED = Path(__file__).parent / "data" / "index_digests.json"


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        data = handle.read()
    # The metadata record is padded to a fixed length: the build time's
    # digits and the padding that follows are the only free bytes.
    return hashlib.sha256(re.sub(rb'"build_seconds": [0-9.e-]+, "pad": " *"', b"", data)).hexdigest()


def _corpus():
    return CorpusGenerator(seed=_SEED).generate_list(_SENTENCES)


def index_digest(directory: str, coding: str, mss: int) -> str:
    path = os.path.join(directory, f"{coding}-{mss}.si")
    SubtreeIndex.build(_corpus(), mss=mss, coding=coding, path=path).close()
    return _digest(path)


def live_digests(directory: str, coding: str) -> Dict[str, str]:
    """Seed, add, delete (a segment's trees and the delta's), compact, twice:
    the digest of every segment file the last epoch holds, by file name."""
    trees = _corpus()
    live = LiveIndex.create(os.path.join(directory, f"live-{coding}"), 3, coding, trees=trees[:120], fsync=False)
    try:
        added = [live.add_tree(tree.root) for tree in trees[120:160]]
        for tid in [3, 4, 50, 119, *added[::4]]:
            live.delete_tree(tid)
        live.compact()
        added = [live.add_tree(tree.root) for tree in trees[160:]]
        for tid in [0, 121, 122, *added[1::5]]:
            live.delete_tree(tid)
        live.compact()
        digests = {}
        for segment in live.segments:
            for name in (segment.entry.index_path, segment.entry.data_path):
                digests[name] = _digest(live.manifest.resolve(live.manifest_path, name))
        return digests
    finally:
        live.close()


def compute_digests(directory: str) -> Dict[str, object]:
    return {
        "corpus": {"seed": _SEED, "sentences": _SENTENCES},
        "index": {
            f"{coding}/mss{mss}": index_digest(directory, coding, mss)
            for coding in CODINGS
            for mss in MSS_VALUES
        },
        "live": {coding: live_digests(directory, coding) for coding in CODINGS},
    }


@pytest.fixture(scope="module")
def pinned() -> Dict[str, object]:
    return json.loads(_PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("mss", MSS_VALUES)
@pytest.mark.parametrize("coding", CODINGS)
def test_index_file_is_byte_identical_to_the_pinned_build(tmp_path, pinned, coding, mss) -> None:
    assert pinned["corpus"] == {"seed": _SEED, "sentences": _SENTENCES}
    assert index_digest(str(tmp_path), coding, mss) == pinned["index"][f"{coding}/mss{mss}"]


@pytest.mark.parametrize("coding", CODINGS)
def test_live_segments_are_byte_identical_after_add_delete_compact(tmp_path, pinned, coding) -> None:
    assert live_digests(str(tmp_path), coding) == pinned["live"][coding]
