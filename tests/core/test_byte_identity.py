"""Every file the write path produces, held to digests pinned twice over.

``data/index_digests.json`` carries two kinds of pin; do not regenerate
either from the checkout.

* ``content`` -- SHA-256 over the ordered ``(key, value)`` stream of
  ``raw_items()`` -- was written by running :func:`compute_digests` on PR
  20's commit, the last one whose B+Tree wrote the v1 page layout.  It is
  what an index *holds*: a change to extraction, a coding's row order, the
  body encoder or compaction that moves one key or posting byte fails here,
  whatever the pages around them look like.
* ``index`` / ``live`` -- SHA-256 of the files themselves -- were written by
  the same function on PR 21's commit (one overflow stream, front-coded
  leaves), after the ``content`` digests had been checked identical on both
  sides of that change.  The files of PR 19 and PR 20, which the pins this
  replaces were taken from, held the same pairs in the v1 layout.  A change
  to ``bulk_load``, the leaf or overflow format, or anything above that
  moves one byte of an index file, a live segment or its data file fails here.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Dict, Tuple

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


def content_digest(index: SubtreeIndex) -> str:
    """What *index* holds, whatever its pages look like: every pair of
    ``raw_items()`` in order, each part behind its length."""
    digest = hashlib.sha256()
    for key, value in index.raw_items():
        digest.update(b"%d:%b%d:%b" % (len(key), key, len(value), value))
    return digest.hexdigest()


def _corpus():
    return CorpusGenerator(seed=_SEED).generate_list(_SENTENCES)


def index_digests(directory: str, coding: str, mss: int) -> Tuple[str, str]:
    """``(file digest, content digest)`` of one fresh build."""
    path = os.path.join(directory, f"{coding}-{mss}.si")
    with SubtreeIndex.build(_corpus(), mss=mss, coding=coding, path=path) as index:
        content = content_digest(index)
    return _digest(path), content


def live_digests(directory: str, coding: str) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Seed, add, delete (a segment's trees and the delta's), compact, twice:
    the digest of every segment file the last epoch holds, by file name, and
    the content digest of every segment index."""
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
        digests, contents = {}, {}
        for segment in live.segments:
            contents[segment.entry.index_path] = content_digest(segment.index)
            for name in (segment.entry.index_path, segment.entry.data_path):
                digests[name] = _digest(live.manifest.resolve(live.manifest_path, name))
        return digests, contents
    finally:
        live.close()


def compute_digests(directory: str) -> Dict[str, object]:
    built = {
        f"{coding}/mss{mss}": index_digests(directory, coding, mss)
        for coding in CODINGS
        for mss in MSS_VALUES
    }
    live = {coding: live_digests(directory, coding) for coding in CODINGS}
    return {
        "corpus": {"seed": _SEED, "sentences": _SENTENCES},
        "content": {
            "index": {name: content for name, (_, content) in built.items()},
            "live": {coding: contents for coding, (_, contents) in live.items()},
        },
        "index": {name: digest for name, (digest, _) in built.items()},
        "live": {coding: digests for coding, (digests, _) in live.items()},
    }


@pytest.fixture(scope="module")
def pinned() -> Dict[str, object]:
    return json.loads(_PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("mss", MSS_VALUES)
@pytest.mark.parametrize("coding", CODINGS)
def test_index_file_is_byte_identical_to_the_pinned_build(tmp_path, pinned, coding, mss) -> None:
    assert pinned["corpus"] == {"seed": _SEED, "sentences": _SENTENCES}
    digest, content = index_digests(str(tmp_path), coding, mss)
    assert content == pinned["content"]["index"][f"{coding}/mss{mss}"]
    assert digest == pinned["index"][f"{coding}/mss{mss}"]


@pytest.mark.parametrize("coding", CODINGS)
def test_live_segments_are_byte_identical_after_add_delete_compact(tmp_path, pinned, coding) -> None:
    digests, contents = live_digests(str(tmp_path), coding)
    assert contents == pinned["content"]["live"][coding]
    assert digests == pinned["live"][coding]
