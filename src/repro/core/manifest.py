"""The manifest: the openable catalogue of a multi-file index.

An index kept in several files is a set of immutable segments -- each a
complete ``SubtreeIndex`` + ``TreeStore`` pair over its own tree ids -- and
this one JSON file tying them together::

    {
      "format": "repro-index-manifest",
      "version": 1,
      "mss": 3,
      "coding": "root-split",
      "epoch": 4,
      "next_tid": 1240,
      "next_segment_id": 6,
      "segments": [
        {"segment_id": 0, "index_path": "corpus.seg000",
         "data_path": "corpus.seg000.data", "tree_count": 1200,
         "key_count": 9120, "posting_count": 60233, "build_seconds": 0.95,
         "min_tid": 0, "max_tid": 1199},
        ...
      ],
      "partitioner": null,
      "build_seconds": 0.0
    }

``partitioner`` is what tells the two kinds of bundle apart.  A sharded
build records the policy that dealt the trees (segment *i* is shard *i*) and
the wall time of the whole build; such a bundle is **frozen** and opens as a
plain :class:`~repro.core.segments.SegmentSet`.  Without one the bundle is
**live**: it has a write-ahead log beside it and opens as a
:class:`~repro.live.live.LiveIndex`, whose every compaction writes the new
segment files first and then replaces the manifest with the epoch bumped.

The manifest is the unit of atomicity.  :meth:`Manifest.commit` publishes
every bundle -- a live index's creation, each compaction, a sharded build --
over files already on disk (``repro.core.segments.write_segment`` fsyncs
them) with one :func:`os.replace` and an fsync of the directory, so a reader
and a power loss alike find the old catalogue or the new one, never a half
state.  Paths are stored relative to the manifest's directory, so a bundle
can be moved or copied as one.

:meth:`Manifest.load` also reads the two formats this one replaced --
``repro-live-index`` and ``repro-sharded-index``, both version 1 -- and
never rewrites a file it opened: a legacy live manifest turns into this
format at its next compaction, a legacy sharded one stays as it is.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Identifies a manifest file regardless of its filename.
MANIFEST_FORMAT = "repro-index-manifest"
MANIFEST_VERSION = 1
#: Conventional filename suffix of a frozen (sharded) bundle's manifest ...
MANIFEST_SUFFIX = ".manifest.json"
#: ... and of a live one's.
LIVE_SUFFIX = ".live.json"

_ABSENT = object()
_NUMBER = (int, float)
_OPTIONAL_INT = (int, type(None))
#: Accepted JSON types of every top-level and per-entry field.
_TOP_TYPES = {
    "mss": int, "coding": str, "partitioner": (str, type(None)), "epoch": int, "next_tid": int,
    "next_segment_id": int, "build_seconds": _NUMBER, "segments": list,
}
_ENTRY_TYPES = {
    "segment_id": int, "index_path": str, "data_path": str, "tree_count": int, "key_count": int,
    "posting_count": int, "build_seconds": _NUMBER, "min_tid": _OPTIONAL_INT, "max_tid": _OPTIONAL_INT,
}
#: format id -> (version read, then for the top level and for an entry: what
#: that format calls the fields it names differently, and the fields it may
#: lack with the values they then take).  A legacy sharded manifest's
#: ``shard_count`` is the id its next shard would get.
_AS_HERE: Tuple[Dict[str, str], Dict[str, object]] = ({}, {})
_READERS = {
    MANIFEST_FORMAT: (MANIFEST_VERSION, _AS_HERE, _AS_HERE),
    "repro-live-index": (1, ({}, {"partitioner": None, "build_seconds": 0.0}), _AS_HERE),
    "repro-sharded-index": (
        1,
        ({"segments": "shards", "next_segment_id": "shard_count", "build_seconds": "build_wall_seconds"},
         {"epoch": 0, "next_tid": 0}),
        ({"segment_id": "shard_id"}, {"min_tid": None, "max_tid": None}),
    ),
}


class ManifestError(RuntimeError):
    """A manifest, or a file it lists, is missing, damaged or inconsistent."""


class UnsyncedCommit(ManifestError):
    """A manifest is renamed into place, but the rename may not survive a power loss."""


@dataclass
class SegmentEntry:
    """One immutable segment's files and counters, as the manifest records them."""

    segment_id: int  # a shard's id in a frozen bundle
    index_path: str  # relative to the manifest directory
    data_path: str   # relative to the manifest directory
    tree_count: int
    key_count: int
    posting_count: int
    build_seconds: float
    min_tid: Optional[int] = None  # unknown in a legacy sharded manifest,
    max_tid: Optional[int] = None  # and of a shard that got no tree


@dataclass
class Manifest:
    """The parsed contents of a manifest file."""

    mss: int
    coding: str
    epoch: int = 0
    next_tid: int = 0
    next_segment_id: int = 0
    segments: List[SegmentEntry] = field(default_factory=list)
    #: The policy a sharded build dealt the trees by; ``None`` in a live bundle.
    partitioner: Optional[str] = None
    #: Wall time of the build that wrote the whole bundle (sharded builds).
    build_seconds: float = 0.0

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION, **asdict(self)}
        return json.dumps(payload, indent=2) + "\n"

    def save_atomic(self, path: str) -> None:
        """Write the manifest durably: temp file, fsync, one rename, then an
        fsync of the directory so that the rename itself is on disk.  That
        last failing raises :class:`UnsyncedCommit`: the rename has happened."""
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        try:
            fsync_path(os.path.dirname(os.path.abspath(path)))
        except OSError as failure:
            raise UnsyncedCommit(f"manifest {path!r} is in place but not yet durable: {failure}") from failure

    def commit(self, path: str, then: Optional[Callable[[], None]] = None) -> None:
        """Make this the manifest at *path* (:meth:`save_atomic`, the commit
        point), run *then* (a live index swaps its write-ahead log there), and
        remove -- best effort, a bare filename beside the manifest only -- the
        files that only the replaced manifest listed.  Once renamed the commit
        stands: an :class:`UnsyncedCommit` is raised after *then*, removing
        nothing (the replaced manifest may come back after a power loss)."""
        try:
            replaced = Manifest.load(path).segments
        except ManifestError:  # none there, or nothing a build could have written
            replaced = []
        try:
            self.save_atomic(path)
        except UnsyncedCommit:
            if then is not None:
                then()
            raise
        if then is not None:
            then()
        kept = {name for entry in self.segments for name in (entry.index_path, entry.data_path)}
        directory = os.path.dirname(os.path.abspath(path))
        for entry in replaced:
            for stale in {entry.index_path, entry.data_path} - kept:
                if os.path.basename(stale) == stale:
                    try:
                        os.remove(os.path.join(directory, stale))
                    except OSError:
                        pass

    @classmethod
    def load(cls, path: str) -> "Manifest":
        """Read and validate a manifest of this format or a legacy one.

        Raises :class:`ManifestError` naming *path* and the field when one
        is missing, of the wrong type or (in an entry) unknown.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            raise ManifestError(f"cannot read manifest {path!r}: {error}") from error
        if not isinstance(payload, dict) or payload.get("format") not in _READERS:
            raise ManifestError(f"{path!r} is not an index manifest")
        version, top_level, entry_level = _READERS[payload["format"]]
        if payload.get("version") != version:
            raise ManifestError(
                f"unsupported {payload['format']} version {payload.get('version')!r} in {path!r} "
                f"(this build reads version {version})"
            )

        def read(record: object, types: dict, level: tuple, where: str) -> Tuple[dict, dict]:
            """*record*'s fields of *types*, checked, and whatever else it holds."""
            theirs, defaults = level
            if not isinstance(record, dict):
                raise ManifestError(f"manifest {path!r}: {where} must be an object")
            values, rest = {}, dict(record)
            for name, accepted in types.items():
                label = theirs.get(name, name)
                value = values[name] = rest.pop(label, defaults.get(name, _ABSENT))
                if isinstance(value, bool) or not isinstance(value, accepted):
                    problem = "is missing" if value is _ABSENT else f"is {value!r}"
                    raise ManifestError(f"manifest {path!r}: {label!r} of {where} {problem}")
            return values, rest

        top, _ = read(payload, _TOP_TYPES, top_level, "the manifest")
        entries = []
        for position, record in enumerate(top["segments"]):
            where = f"entry {position} of {top_level[0].get('segments', 'segments')!r}"
            entry, unknown = read(record, _ENTRY_TYPES, entry_level, where)
            if unknown:
                raise ManifestError(f"manifest {path!r}: {where} has an unknown field {min(unknown)!r}")
            entries.append(SegmentEntry(**entry))
        manifest = cls(**{**top, "segments": entries})
        # Shard i is segment i: the partitioner routes a tid to a position.
        listed = [entry.segment_id for entry in entries]
        if manifest.partitioner is not None and listed != list(range(manifest.next_segment_id)):
            raise ManifestError(
                f"manifest {path!r} declares {manifest.next_segment_id} shards but lists {listed}"
            )
        return manifest

    def resolve(self, manifest_path: str, relative: str) -> str:
        """Resolve a segment-relative path against the manifest's directory."""
        return os.path.join(os.path.dirname(os.path.abspath(manifest_path)), relative)


def is_manifest(path: str) -> bool:
    """``True`` when *path* names an existing manifest, of this format or a legacy one.

    Sniffs the content rather than trusting the filename, so a manifest
    renamed to ``corpus.si`` still dispatches correctly, and a B+Tree file
    named ``x.manifest.json`` does not.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(512)
    except OSError:  # missing, a directory, unreadable
        return False
    return any(name.encode("ascii") in head for name in _READERS)


def segment_file_names(
    manifest_path: str, segment_id: int, shard_epoch: Optional[int] = None
) -> Tuple[str, str]:
    """The conventional (index, data) filenames of one segment.

    ``corpus.live.json`` -> ``corpus.seg000`` / ``corpus.seg000.data``, whose
    ids are never reused.  A frozen bundle's shard is named after the epoch
    of the build that writes it, so a rebuild never touches a file the
    manifest it replaces names: ``corpus.si.manifest.json`` ->
    ``corpus.si.shard00`` / ``.shard00.data`` at *shard_epoch* 0,
    ``corpus.si.e1.shard00`` at 1.  Both are relative to the manifest's
    directory.
    """
    base = os.path.basename(manifest_path)
    if shard_epoch is None:
        index_name = f"{base.removesuffix(LIVE_SUFFIX)}.seg{segment_id:03d}"
    else:
        stem = base.removesuffix(MANIFEST_SUFFIX) + (f".e{shard_epoch}" if shard_epoch else "")
        index_name = f"{stem}.shard{segment_id:02d}"
    return index_name, index_name + ".data"


def wal_file_path(manifest_path: str) -> str:
    """The write-ahead-log path conventionally stored next to a live manifest."""
    directory, base = os.path.split(os.path.abspath(manifest_path))
    return os.path.join(directory, base.removesuffix(LIVE_SUFFIX) + ".wal")


def fsync_path(path: str) -> None:
    """Flush what the OS holds of *path* -- a file's bytes, or a directory's
    entries (a rename into it) -- to the disk."""
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)
