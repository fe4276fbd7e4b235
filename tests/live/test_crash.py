"""Simulated-crash tests: acknowledged writes survive, no op is replayed twice.

The writer child process adds trees through the real ``LiveIndex`` API,
prints each tid *after* the add returned (the acknowledgement), and then
dies with ``os._exit`` -- no ``close()``, no flushing, exactly like a kill
-9 or a power cut after the WAL fsync.  The parent reopens the index and
checks that every acknowledged op is present exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.core.manifest import wal_file_path
from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus
from repro.live import LiveIndex

REPO_SRC = str(Path(__file__).resolve().parent.parent.parent / "src")

#: The crashing writer: adds every tree of a Penn file, acks tids to stdout,
#: deletes one seed tree, then dies without closing anything.
_WRITER = """
import os, sys
from repro.corpus.store import Corpus
from repro.live import LiveIndex

live = LiveIndex.open(sys.argv[1])
for tree in Corpus.load(sys.argv[2]):
    tid = live.add_tree(tree.root)
    print(tid, flush=True)
live.delete_tree(0)
print("deleted 0", flush=True)
os._exit(1)  # simulated crash: no close(), no manifest touch
"""


def _run_writer(manifest_path: str, penn_path: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _WRITER, manifest_path, penn_path],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_acknowledged_writes_survive_a_crash(tmp_path, tiny_corpus) -> None:
    live = LiveIndex.create(
        str(tmp_path / "crash"), mss=2, coding="root-split", trees=list(tiny_corpus)[:10]
    )
    manifest_path = live.manifest_path
    live.close()

    extra = CorpusGenerator(seed=55).generate_list(8)
    penn_path = str(tmp_path / "extra.penn")
    Corpus(extra).save(penn_path)

    result = _run_writer(manifest_path, penn_path)
    assert result.returncode == 1, result.stderr  # the simulated crash
    lines = result.stdout.split()
    assert lines[-2:] == ["deleted", "0"]
    acked = [int(token) for token in lines[:-2]]
    assert len(acked) == 8

    reopened = LiveIndex.open(manifest_path)
    try:
        tids = reopened.store.tids()
        # Zero lost ops: every acknowledged add is present exactly once, and
        # the acknowledged delete took effect.
        for tid in acked:
            assert tids.count(tid) == 1
        assert 0 not in tids
        assert reopened.tree_count == 10 + 8 - 1
        assert reopened.delta.tree_count == 8
        assert reopened.tombstones == frozenset({0})
        # Zero duplicated ops: replaying again (close + reopen) is stable.
        reopened.close()
        again = LiveIndex.open(manifest_path)
        try:
            assert again.store.tids() == tids
            assert again.wal.op_count == 9
        finally:
            again.close()
    finally:
        pass


def test_crash_between_manifest_swap_and_wal_truncate(tmp_path, tiny_corpus) -> None:
    """A stale-epoch WAL (compaction died before truncating it) is discarded,
    never replayed -- replaying would duplicate every compacted op."""
    live = LiveIndex.create(
        str(tmp_path / "stale"), mss=2, coding="root-split", trees=list(tiny_corpus)[:6]
    )
    manifest_path = live.manifest_path
    for tree in list(tiny_corpus)[6:10]:
        live.add_tree(tree.root)
    live.delete_tree(1)
    wal_path = wal_file_path(manifest_path)
    pre_compact_wal = str(tmp_path / "wal.backup")
    shutil.copyfile(wal_path, pre_compact_wal)
    live.compact()
    expected_tids = live.store.tids()
    expected_count = live.tree_count
    live.close()

    # Simulate the torn compaction: new manifest on disk, old WAL back.
    shutil.copyfile(pre_compact_wal, wal_path)

    reopened = LiveIndex.open(manifest_path)
    try:
        assert reopened.store.tids() == expected_tids
        assert reopened.tree_count == expected_count
        assert reopened.delta.tree_count == 0  # nothing was replayed
        assert reopened.tombstones == frozenset()
        assert reopened.wal.epoch == reopened.epoch  # fresh log, current epoch
        assert reopened.wal.op_count == 0
    finally:
        reopened.close()


def test_crash_leaves_wal_side_file(tmp_path, tiny_corpus) -> None:
    """A leftover ``.wal.next`` from an aborted compaction is cleaned up."""
    live = LiveIndex.create(
        str(tmp_path / "side"), mss=2, coding="root-split", trees=list(tiny_corpus)[:4]
    )
    manifest_path = live.manifest_path
    live.add_tree(tiny_corpus[4].root)
    live.close()
    side = wal_file_path(manifest_path) + ".next"
    with open(side, "wb") as handle:
        handle.write(b"leftover")

    reopened = LiveIndex.open(manifest_path)
    try:
        assert not os.path.exists(side)
        assert reopened.delta.tree_count == 1  # the real WAL still replays
    finally:
        reopened.close()
