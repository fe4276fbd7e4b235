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

import pytest

from repro.core.manifest import wal_file_path
from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus
from repro.live import LiveIndex
from tests.core.fsynckit import (
    assert_committed_durably,
    last_rename_onto,
    needs_proc_fd,
    open_file_names,
    record_durability,
)

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


@needs_proc_fd
def test_a_compaction_puts_what_its_manifest_names_on_disk_before_the_swap(
    tmp_path, tiny_corpus, monkeypatch
) -> None:
    """Segment files fsynced -> manifest rename -> directory fsync -> WAL
    rename -> directory fsync: a power loss at any point leaves a manifest
    whose every page is on disk, and an op acked after the compaction in the
    log the directory names."""
    events = record_durability(monkeypatch)
    trees = list(tiny_corpus)
    live = LiveIndex.create(str(tmp_path / "durable"), mss=2, coding="root-split", trees=trees[:6])
    try:
        for tree in trees[6:10]:
            live.add_tree(tree.root)
        live.compact()
        for tree in trees[10:13]:
            live.add_tree(tree.root)
        live.delete_tree(7)
        live.compact()  # keeps segment 0, rewrites segment 1, flushes the delta
        assert [segment.entry.segment_id for segment in live.segments] == [0, 2, 3]
        assert_committed_durably(events, live.manifest_path)
        wal_path = wal_file_path(live.manifest_path)
        assert last_rename_onto(events, wal_path) > last_rename_onto(events, live.manifest_path)
        assert ("fsync", str(tmp_path.resolve())) in events[last_rename_onto(events, wal_path) + 1:]
    finally:
        live.close()


@needs_proc_fd
def test_a_live_index_without_fsync_fsyncs_no_segment(tmp_path, tiny_corpus, monkeypatch) -> None:
    events = record_durability(monkeypatch)
    live = LiveIndex.create(
        str(tmp_path / "lax"), mss=2, coding="root-split", trees=list(tiny_corpus)[:6], fsync=False
    )
    try:
        live.add_tree(tiny_corpus[6].root)
        live.delete_tree(0)
        live.compact()
        synced = [path for kind, path in events if kind == "fsync"]
        assert not [path for path in synced if ".seg" in os.path.basename(path)]
        assert synced.count(str(tmp_path.resolve())) == 2  # each manifest's rename, nothing else
    finally:
        live.close()


def test_a_failed_manifest_swap_leaves_the_index_as_it_was(tmp_path, tiny_corpus, monkeypatch) -> None:
    """The live twin of the sharded build's failed swap: the compaction
    raises, the index answers as before with its ops still in the log, the
    files it wrote for nothing are closed, and a retry commits."""
    from repro.core.manifest import Manifest

    trees = list(tiny_corpus)
    live = LiveIndex.create(str(tmp_path / "refused"), mss=2, coding="root-split", trees=trees[:6])
    manifest_path = live.manifest_path
    try:
        added = [live.add_tree(tree.root) for tree in trees[6:10]]
        live.delete_tree(2)
        before = (live.version, live.store.tids(), list(live.items()), live.wal.op_count)
        manifest_bytes = Path(manifest_path).read_bytes()

        def refuse(self, path) -> None:
            raise OSError("no space left on device")

        monkeypatch.setattr(Manifest, "save_atomic", refuse)
        with pytest.raises(OSError, match="no space left") as refused:
            live.compact()
        monkeypatch.undo()
        assert Path(manifest_path).read_bytes() == manifest_bytes
        assert (live.version, live.store.tids(), list(live.items()), live.wal.op_count) == before
        if os.path.isdir("/proc/self/fd"):  # closed, not left to the collector: the
            # traceback keeps the compaction's locals alive
            written = {"refused.seg001", "refused.seg001.data", "refused.seg002", "refused.seg002.data"}
            assert refused.tb is not None
            assert not (written | {"refused.wal.next"}) & open_file_names()

        reopened = LiveIndex.open(manifest_path)  # every op replays from the log
        try:
            assert reopened.store.tids() == before[1] and list(reopened.items()) == before[2]
            assert reopened.delta.trees.tids() == added and reopened.tombstones == {2}
        finally:
            reopened.close()

        stats = live.compact()  # a retry commits
        assert (stats.epoch, stats.flushed_trees, stats.segments_rewritten) == (1, 4, 1)
        assert live.store.tids() == before[1] and list(live.items()) == before[2]
    finally:
        live.close()
    again = LiveIndex.open(manifest_path)
    try:
        assert again.epoch == 1 and again.wal.op_count == 0 and again.store.tids() == before[1]
    finally:
        again.close()


def test_a_directory_fsync_that_fails_after_the_manifest_rename_keeps_the_commit(
    tmp_path, tiny_corpus, monkeypatch
) -> None:
    """The twin of the failed swap above, failing one step later: the
    manifest is renamed into place and only the fsync of its directory
    fails.  The rename is the commit, so the index moves to the new epoch
    with it -- the WAL swapped, then a named error -- an add acked after it
    survives a reopen, and the next compaction overwrites no file the
    manifest on disk names."""
    from repro.core import manifest as manifest_module
    from repro.core.manifest import Manifest, UnsyncedCommit, segment_file_names
    from repro.live import live as live_module

    trees = list(tiny_corpus)
    live = LiveIndex.create(str(tmp_path / "unsynced"), mss=2, coding="root-split", trees=trees[:6])
    manifest_path = live.manifest_path
    try:
        for tree in trees[6:10]:
            live.add_tree(tree.root)
        live.delete_tree(2)
        survivors = live.store.tids()
        fsync = manifest_module.fsync_path

        def refuse_directories(path: str) -> None:
            if os.path.isdir(path):
                raise OSError("input/output error")
            fsync(path)

        monkeypatch.setattr(manifest_module, "fsync_path", refuse_directories)
        with pytest.raises(UnsyncedCommit, match="input/output error"):
            live.compact()
        monkeypatch.undo()
        on_disk = Manifest.load(manifest_path)
        assert live.epoch == on_disk.epoch == 1 and live.wal.epoch == 1 and live.wal.op_count == 0
        assert live.store.tids() == survivors and not live.tombstones

        acked = live.add_tree(trees[10].root)
        peek = LiveIndex.open(manifest_path)  # what a restart would find
        try:
            assert peek.epoch == 1 and peek.store.tids() == survivors + [acked]
        finally:
            peek.close()

        named = {name for entry in on_disk.segments for name in (entry.index_path, entry.data_path)}
        write, written = live_module.write_segment, []

        def spy(path, segment_id, *args, **kwargs):
            written.extend(segment_file_names(path, segment_id))
            return write(path, segment_id, *args, **kwargs)

        monkeypatch.setattr(live_module, "write_segment", spy)
        assert live.compact().epoch == 2
        assert written and not set(written) & named
    finally:
        live.close()
    reopened = LiveIndex.open(manifest_path)
    try:
        assert reopened.epoch == 2 and reopened.store.tids() == survivors + [acked]
    finally:
        reopened.close()


@pytest.mark.parametrize("failing", ["rename", "directory fsync"])
def test_a_wal_swap_that_fails_after_the_manifest_rename_keeps_the_commit(
    tmp_path, tiny_corpus, monkeypatch, failing
) -> None:
    """One step later again: the manifest is renamed and durable, and then
    the new WAL's rename (or the directory fsync after it) fails.  The
    commit stands -- the index moves to the new epoch and the compaction
    raises -- and no op is acked into a log a reopen would discard: with the
    new log in place an add is acked and replays, without it every write
    raises ``WalError`` until the index is reopened."""
    from repro.core.manifest import Manifest
    from repro.live import wal as wal_module
    from repro.live.wal import WalError, WriteAheadLog

    trees = list(tiny_corpus)
    live = LiveIndex.create(str(tmp_path / "swap"), mss=2, coding="root-split", trees=trees[:6])
    manifest_path = live.manifest_path
    try:
        for tree in trees[6:10]:
            live.add_tree(tree.root)
        live.delete_tree(2)
        survivors = live.store.tids()

        def broken(*args) -> None:
            raise OSError("input/output error")

        if failing == "rename":
            monkeypatch.setattr(WriteAheadLog, "move_to", broken)
        else:
            monkeypatch.setattr(wal_module, "fsync_path", broken)
        with pytest.raises(OSError, match="input/output error"):
            live.compact()
        monkeypatch.undo()
        assert live.epoch == Manifest.load(manifest_path).epoch == 1 and live.wal.epoch == 1
        assert live.store.tids() == survivors and not live.tombstones

        if failing == "rename":
            with pytest.raises(WalError, match="reopen the index"):
                live.add_tree(trees[10].root)
            with pytest.raises(WalError, match="reopen the index"):
                live.delete_tree(0)
            assert live.store.tids() == survivors
            expected = survivors
        else:
            expected = survivors + [live.add_tree(trees[10].root)]
    finally:
        live.close()
    reopened = LiveIndex.open(manifest_path)
    try:
        assert reopened.epoch == 1 and reopened.store.tids() == expected
        acked = reopened.add_tree(trees[11].root)  # the reopened index writes again
    finally:
        reopened.close()
    again = LiveIndex.open(manifest_path)
    try:
        assert again.store.tids() == expected + [acked]
    finally:
        again.close()


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
