"""Unit tests for the one tid -> shard deal, a stable crc32 of the tid."""

from __future__ import annotations

import pytest

from repro.core.segments import hash_shard
from repro.shard import build_sharded


class TestHash:
    def test_assign_is_deterministic_and_in_range(self) -> None:
        for tid in range(200):
            shard = hash_shard(tid, 4)
            assert 0 <= shard < 4
            assert hash_shard(tid, 4) == shard

    def test_pinned_values(self) -> None:
        # Stable across processes and Python versions: committed bundles
        # (tests/shard/data/) were dealt by it.
        assert [hash_shard(tid, 4) for tid in range(8)] == [1, 3, 0, 2, 3, 1, 2, 0]

    def test_spreads_sequential_tids(self) -> None:
        counts = [0, 0, 0, 0]
        for tid in range(400):
            counts[hash_shard(tid, 4)] += 1
        assert min(counts) > 0  # no empty shard on a sequential corpus

    def test_bad_shard_count(self, tmp_path, tiny_corpus) -> None:
        with pytest.raises(ValueError, match="shard count"):
            build_sharded(tiny_corpus, 2, "root-split", str(tmp_path / "none.si"), shards=0)
