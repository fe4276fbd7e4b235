"""Sharded bundles written before the one manifest still open -- unrewritten.

``data/`` holds two bundles written by :func:`build_fixtures` **run on PR 21's
commit** (8453aa0), the last whose ``repro.shard.manifest`` wrote the
``repro-sharded-index`` format: 60 generated sentences, root-split mss 3, one
2-shard ``hash`` bundle and one 3-shard ``round-robin`` bundle (147 KB
together).  Do not regenerate them from the checkout -- it would write the
new manifest format and the tests would compare the reader with itself.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, List

import pytest

from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet, hash_shard
from repro.corpus.generator import CorpusGenerator
from repro.exec.executor import QueryExecutor
from repro.service.service import QueryService
from repro.shard import build_sharded
from repro.trees.node import ParseTree
from repro.workloads.wh import generate_wh_queries
from tests.core.fsynckit import file_states

_DATA = Path(__file__).parent / "data"
BUNDLES = {"hash2.si.manifest.json": ("hash", 2), "rr3.si.manifest.json": ("round-robin", 3)}


def _corpus() -> List[ParseTree]:
    return CorpusGenerator(seed=20120803).generate_list(60)


def build_fixtures(directory: str) -> None:
    """What wrote ``data/`` (at PR 21's commit, whose ``build_sharded`` took
    a ``partitioner=``; see the module docstring)."""
    for name, (partitioner, shards) in BUNDLES.items():
        path = os.path.join(directory, name[: -len(".manifest.json")])
        build_sharded(_corpus(), 3, "root-split", path, shards=shards, workers=1, partitioner=partitioner)


@pytest.fixture()
def legacy() -> Iterator[Path]:
    """The committed files, opened in place: a reader writes no byte of them."""
    before = file_states(_DATA)
    yield _DATA
    assert file_states(_DATA) == before


@pytest.fixture(scope="module")
def expected(tmp_path_factory) -> List[dict]:
    """The 48 WH templates' answers over a fresh plain build of the same trees."""
    path = str(tmp_path_factory.mktemp("fresh") / "fresh.si")
    with SubtreeIndex.build(_corpus(), mss=3, coding="root-split", path=path) as fresh:
        executor = QueryExecutor(fresh)
        answers = [executor.execute(item.query).matches_per_tree for item in generate_wh_queries()]
    assert len(answers) == 48 and sum(map(bool, answers)) > 10
    return answers


def test_the_fixtures_are_legacy_manifests() -> None:
    for name, (partitioner, shards) in BUNDLES.items():
        payload = json.loads((_DATA / name).read_text(encoding="utf-8"))
        assert (payload["format"], payload["version"]) == ("repro-sharded-index", 1)
        assert (payload["partitioner"], payload["shard_count"], payload["tree_count"]) == (partitioner, shards, 60)
        assert "min_tid" not in payload["shards"][0] and "build_wall_seconds" in payload
    assert sum(path.stat().st_size for path in _DATA.iterdir()) < 150 * 1024


@pytest.mark.parametrize("name", BUNDLES)
def test_a_legacy_bundle_opens_frozen_and_answers_as_a_fresh_build(legacy, expected, name) -> None:
    partitioner, shards = BUNDLES[name]
    manifest_bytes = (legacy / name).read_bytes()
    with SegmentSet.open(str(legacy / name)) as index:
        assert type(index) is SegmentSet and index.flavor == "sharded"
        assert (index.segment_count, index.manifest.partitioner, index.epoch) == (shards, partitioner, 0)
        assert index.metadata.tree_count == 60 == len(index.store)
        assert index.metadata.build_seconds == json.loads(manifest_bytes)["build_wall_seconds"]
        assert [row["min_tid"] for row in index.stats_extras()["sources"]] == [None] * shards
        executor = QueryExecutor(index)
        assert [executor.execute(item.query).matches_per_tree for item in generate_wh_queries()] == expected
    with QueryService.open(str(legacy / name)) as service:
        assert service.index.flavor == "sharded"
        assert [result.matches_per_tree for result in service.run_many(
            [item.query for item in generate_wh_queries()]
        )] == expected
    assert (legacy / name).read_bytes() == manifest_bytes


def test_locate_routes_under_hash_and_asks_everyone_under_round_robin(legacy) -> None:
    with SegmentSet.open(str(legacy / "hash2.si.manifest.json")) as hashed:
        for tid in range(60):
            position = hashed.locate(tid)
            assert position == hash_shard(tid, 2)
            assert tid in hashed.segments[position].store
            assert hashed.store.get(tid).tid == tid
    with SegmentSet.open(str(legacy / "rr3.si.manifest.json")) as dealt:
        assert {dealt.locate(tid) for tid in range(60)} == {None}
        assert [dealt.store.get(tid).tid for tid in range(60)] == list(range(60))


def test_mutating_commands_refuse_a_legacy_sharded_bundle(legacy) -> None:
    from repro.core.manifest import ManifestError
    from repro.live import LiveIndex

    with pytest.raises(ManifestError, match="is not a live index"):
        LiveIndex.open(str(legacy / "hash2.si.manifest.json"))
