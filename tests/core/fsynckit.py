"""What a commit made durable, and in which order.

:func:`record_durability` makes ``os.fsync`` and ``os.replace`` log each call
-- an fsync by the path its descriptor is open on (``/proc/self/fd``), a
rename by its destination -- and still do their work, so a test can check the
commit order after the fact: every file a manifest names fsynced before the
rename that put the manifest in place, the directory fsynced after it.
:func:`file_states` is the other side: what a reader must leave as it was.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

from repro.core.manifest import Manifest

#: ``/proc/self/fd`` names what a descriptor is open on (Linux).
needs_proc_fd = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")


def record_durability(monkeypatch: pytest.MonkeyPatch) -> List[Tuple[str, str]]:
    """Patch ``os.fsync`` / ``os.replace`` to append ``("fsync", path)`` /
    ``("replace", destination)`` (real paths) to the returned list in call order."""
    events: List[Tuple[str, str]] = []
    fsync, replace = os.fsync, os.replace

    def logged_fsync(descriptor: int) -> None:
        events.append(("fsync", os.path.realpath(os.readlink(f"/proc/self/fd/{descriptor}"))))
        fsync(descriptor)

    def logged_replace(source, destination, **kwargs) -> None:
        replace(source, destination, **kwargs)
        events.append(("replace", os.path.realpath(destination)))

    monkeypatch.setattr(os, "fsync", logged_fsync)
    monkeypatch.setattr(os, "replace", logged_replace)
    return events


def open_file_names() -> Set[str]:
    """Base names of the files this process has open."""
    names = set()
    for descriptor in os.listdir("/proc/self/fd"):
        try:
            names.add(os.path.basename(os.readlink(f"/proc/self/fd/{descriptor}")))
        except OSError:  # the descriptor the listing itself used
            pass
    return names


def last_rename_onto(events: List[Tuple[str, str]], path: str) -> int:
    """Position in *events* of the last rename onto *path*."""
    return max(position for position, event in enumerate(events) if event == ("replace", os.path.realpath(path)))


def assert_committed_durably(events: List[Tuple[str, str]], manifest_path: str) -> None:
    """The manifest at *manifest_path* was committed durably: every file it
    names was fsynced before the rename that put it there, and the directory
    was fsynced after that rename."""
    manifest = Manifest.load(manifest_path)
    swap = last_rename_onto(events, manifest_path)
    synced = {path for kind, path in events[:swap] if kind == "fsync"}
    named = {
        os.path.realpath(manifest.resolve(manifest_path, name))
        for entry in manifest.segments
        for name in (entry.index_path, entry.data_path)
    }
    assert named and named <= synced, sorted(named - synced)
    directory = os.path.dirname(os.path.realpath(manifest_path))
    assert ("fsync", directory) in events[swap + 1:]


def file_states(directory: "os.PathLike[str]") -> Dict[str, Tuple[bytes, int]]:
    """Every file of *directory* by name: its bytes and modification time
    (ns) -- equal before and after a reader, which writes nothing."""
    return {
        entry.name: (Path(entry.path).read_bytes(), entry.stat().st_mtime_ns)
        for entry in sorted(os.scandir(directory), key=lambda entry: entry.name)
    }
