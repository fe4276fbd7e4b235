"""Index files written before the v2 page layout still open and answer.

``data/`` holds files written by :func:`build_fixtures` **run on PR 20's
commit**, the last whose B+Tree gave every long value a private overflow
chain and stored leaf keys whole (the v1 layout, ``docs/architecture.md``):
a 200-sentence root-split mss-3 index with one two-page chain and thirteen
one-page chains, and a live directory of one such segment plus a WAL that
holds four adds and two deletes.  Do not regenerate them from the checkout --
it would write v2 files and the tests would compare the reader with itself.
The live directory's manifest is a legacy one too (``repro-live-index``, the
format ``repro.live.manifest`` wrote until PR 22): opening it changes no byte
of it, and its next compaction writes the one format of ``repro.core.manifest``.

(The index is 188 KB, not the < 150 KB its issue asked for: in the v1 layout
a 200-sentence index with a list long enough to span two pages cannot be
smaller -- fifteen of its 47 pages are chain pages, most of them mostly
zeros, which is the slack the v2 layout removes.)
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Iterator, List

import pytest

from repro.core.index import SubtreeIndex
from repro.core.manifest import MANIFEST_FORMAT, MANIFEST_VERSION
from repro.corpus.generator import CorpusGenerator
from repro.exec.executor import QueryExecutor
from repro.live.live import LiveIndex
from repro.storage.bptree import _NODE_OVERFLOW
from repro.storage.pager import PAGE_SIZE
from repro.trees.node import ParseTree
from repro.workloads.wh import generate_wh_queries
from tests.core.fsynckit import file_states

_DATA = Path(__file__).parent / "data"
_LIVE_SEED, _LIVE_ADDED, _LIVE_DELETED = 30, 4, (7, 31)


def _corpus() -> List[ParseTree]:
    return CorpusGenerator(seed=20120803, min_tokens=8).generate_list(200)


def build_fixtures(directory: str) -> None:
    """What wrote ``data/`` (at PR 20's commit; see the module docstring)."""
    trees = _corpus()
    SubtreeIndex.build(trees, mss=3, coding="root-split", path=os.path.join(directory, "v1.si")).close()
    live = LiveIndex.create(os.path.join(directory, "v1live"), 3, "root-split", trees=trees[:_LIVE_SEED])
    for tree in trees[_LIVE_SEED:_LIVE_SEED + _LIVE_ADDED]:
        live.add_tree(tree.root)
    for tid in _LIVE_DELETED:
        live.delete_tree(tid)
    live.close()


@pytest.fixture()
def committed() -> Iterator[Path]:
    """The committed files, opened in place: a reader writes no byte of them."""
    before = file_states(_DATA)
    yield _DATA
    assert file_states(_DATA) == before


@pytest.fixture()
def v1(tmp_path) -> Path:
    """A scratch copy of the committed files, for a live index: it writes its WAL."""
    return Path(shutil.copytree(_DATA, tmp_path / "v1"))


def _page_types(path: Path) -> List[int]:
    data = path.read_bytes()
    return [data[offset] for offset in range(PAGE_SIZE, len(data), PAGE_SIZE)]


def _answers(index) -> List[object]:
    executor = QueryExecutor(index)
    return [executor.execute(item.query) for item in generate_wh_queries()]


def test_the_fixtures_are_v1_files_with_both_kinds_of_chain(committed) -> None:
    types = _page_types(committed / "v1.si")
    assert set(types) == {1, 2, 3}  # internal, v1 leaf, overflow: no v2 leaf (4)
    with SubtreeIndex.open(str(committed / "v1.si")) as index:
        long_values = [len(value) for _, value in index.raw_items() if len(value) > PAGE_SIZE // 4]
    capacity = PAGE_SIZE - 7
    assert sorted(-(-length // capacity) for length in long_values) == [1] * 13 + [2]
    assert types.count(_NODE_OVERFLOW) == 15  # a private chain each
    assert 2 in _page_types(committed / "v1live.seg000")
    assert sum(path.stat().st_size for path in _DATA.iterdir()) < 280 * 1024


def test_a_v1_index_holds_and_answers_what_a_fresh_build_does(committed, tmp_path) -> None:
    fresh = SubtreeIndex.build(_corpus(), mss=3, coding="root-split", path=str(tmp_path / "fresh.si"))
    old = SubtreeIndex.open(str(committed / "v1.si"))
    try:
        assert 2 not in _page_types(tmp_path / "fresh.si")  # the writer writes v2 only
        assert fresh.size_bytes() < old.size_bytes()
        assert list(old.raw_items()) == list(fresh.raw_items())
        for key, _ in fresh.raw_items():
            assert old.lookup(key) == fresh.lookup(key)
        assert _answers(old) == _answers(fresh)
        assert any(result.total_matches for result in _answers(old))
    finally:
        old.close()
        fresh.close()


def test_a_v1_live_directory_opens_replays_and_compacts_to_v2(v1, tmp_path) -> None:
    trees = _corpus()[:_LIVE_SEED + _LIVE_ADDED]
    survivors = [tree for tree in trees if tree.tid not in _LIVE_DELETED]
    fresh = SubtreeIndex.build(survivors, mss=3, coding="root-split", path=str(tmp_path / "fresh.si"))
    manifest_path = v1 / "v1live.live.json"
    legacy_bytes = manifest_path.read_bytes()
    assert json.loads(legacy_bytes)["format"] == "repro-live-index"
    live = LiveIndex.open(str(manifest_path), fsync=False)
    try:
        assert live.delta.tree_count == _LIVE_ADDED and len(live.tombstones) == len(_LIVE_DELETED)
        expected = _answers(fresh)
        assert any(result.total_matches for result in expected)
        assert _answers(live) == expected
        live.delete_tree(live.add_tree(_corpus()[100].root))
        assert _answers(live) == expected
        # Open, replay, mutate, query: the legacy manifest is read, never rewritten ...
        assert manifest_path.read_bytes() == legacy_bytes == (_DATA / "v1live.live.json").read_bytes()
        live.compact()
        # ... and the compaction's swap writes the one format, which both
        # legacy loaders refuse by its format id ("not a ... manifest").
        written = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert (written["format"], written["version"]) == (MANIFEST_FORMAT, MANIFEST_VERSION)
        assert written["format"] not in ("repro-live-index", "repro-sharded-index")
        assert (written["partitioner"], written["epoch"]) == (None, 1)
        assert _answers(live) == expected
        merged = {}
        for segment in live.segments:
            path = Path(live.manifest.resolve(live.manifest_path, segment.entry.index_path))
            assert 2 not in _page_types(path)  # rewritten: v2 leaves only
            merged.update(segment.index.raw_items())
        assert sorted(merged) == [key for key, _ in fresh.raw_items()]
    finally:
        live.close()
        fresh.close()
    reopened = LiveIndex.open(str(v1 / "v1live.live.json"), fsync=False)
    try:
        assert _answers(reopened) == expected
    finally:
        reopened.close()
