"""The write-ahead log of a live index.

Every mutation (``add_tree`` / ``delete_tree``) is appended -- and fsynced --
to the WAL *before* it is applied to the in-memory delta segment, so a crash
after an acknowledged write can never lose it: reopening the index replays
the log into an identical delta.  Compaction folds the delta into an
immutable on-disk segment and then starts a fresh log, so the WAL only ever
holds the ops since the last compaction.

Format: a text file of one record per line.  The first line is a header
naming the format and the *epoch* the log belongs to; every line (header
included) is prefixed with the CRC-32 of its JSON payload::

    <crc32 hex> {"format": "repro-live-wal", "version": 1, "epoch": 3}
    <crc32 hex> {"op": "add", "tid": 1200, "tree": "(ROOT (S ...))"}
    <crc32 hex> {"op": "delete", "tid": 17}

The CRC turns a torn final write (power loss mid-append) into a detectable
truncation: replay stops at the first record that fails its checksum, and
:meth:`WriteAheadLog.open` truncates the file back to the last good record.
A bad checksum *followed by more valid data* is not a torn tail but silent
corruption, and raises :class:`WalError` instead of dropping user writes.

The epoch in the header ties a log to the manifest generation it extends.
Compaction writes the new (empty, epoch N+1) log to a side file and renames
it over the old one only *after* the new manifest is in place; if the
process dies between those two steps, the surviving log's epoch is older
than the manifest's, which :meth:`repro.live.live.LiveIndex.open` detects
and treats as "already compacted" -- replaying it would duplicate every op.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import IO, List, Optional, Tuple

from repro.core.manifest import fsync_path

#: Identifies a WAL header record.
WAL_FORMAT = "repro-live-wal"
WAL_VERSION = 1
#: What encodes every record (``json.dumps`` given separators builds one a call).
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class WalError(RuntimeError):
    """The write-ahead log is corrupt or inconsistent with its manifest."""


@dataclass(frozen=True)
class WalOp:
    """One replayable mutation: an ``add`` (with the tree) or a ``delete``."""

    op: str  # "add" | "delete"
    tid: int
    tree: Optional[str] = None  # Penn-bracket text, present for adds


def _encode_record(payload: dict) -> bytes:
    body = _ENCODER.encode(payload).encode("utf-8")
    return b"%08x " % zlib.crc32(body) + body + b"\n"


def _decode_record(line: bytes) -> Optional[dict]:
    """Parse one WAL line; ``None`` when the checksum or syntax fails."""
    if not line.endswith(b"\n") or len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        expected = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:-1]
    if zlib.crc32(body) != expected:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class WriteAheadLog:
    """An append-only, checksummed, fsynced log of live-index mutations."""

    def __init__(self, path: str, epoch: int, handle: IO[bytes], op_count: int, fsync: bool):
        self.path = path
        self.epoch = epoch
        self.op_count = op_count
        self._file = handle
        self._fsync = fsync
        #: Why appends are refused (:meth:`refuse`); ``None`` while they are not.
        self._refusal: Optional[str] = None

    # ------------------------------------------------------------------
    # Creation and recovery
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str, epoch: int, fsync: bool = True) -> "WriteAheadLog":
        """Start a fresh log at *path* (truncating any existing file)."""
        handle = open(path, "wb")
        handle.write(
            _encode_record({"format": WAL_FORMAT, "version": WAL_VERSION, "epoch": epoch})
        )
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
        return cls(path, epoch, handle, op_count=0, fsync=fsync)

    @classmethod
    def open(cls, path: str, fsync: bool = True) -> Tuple["WriteAheadLog", List[WalOp]]:
        """Open an existing log, replaying and returning its ops.

        A torn final record (the tail of a crashed append) is truncated away;
        corruption anywhere else raises :class:`WalError`.  The returned log
        is positioned for further appends.
        """
        ops: List[WalOp] = []
        valid_bytes = 0
        torn = False
        with open(path, "rb") as reader:
            header_line = reader.readline()
            header = _decode_record(header_line)
            if (
                header is None
                or header.get("format") != WAL_FORMAT
                or header.get("version") != WAL_VERSION
            ):
                raise WalError(f"{path!r} is not a live-index write-ahead log")
            epoch = int(header["epoch"])
            valid_bytes = len(header_line)
            for line in reader:
                payload = _decode_record(line)
                if payload is None:
                    torn = True
                    break
                if payload.get("op") not in ("add", "delete"):
                    raise WalError(f"unknown WAL op {payload.get('op')!r} in {path!r}")
                ops.append(
                    WalOp(op=payload["op"], tid=int(payload["tid"]), tree=payload.get("tree"))
                )
                valid_bytes += len(line)
            if torn and reader.read(1):
                # Valid-looking data after the bad record: not a torn tail.
                raise WalError(
                    f"write-ahead log {path!r} is corrupt mid-file "
                    f"(bad checksum at byte {valid_bytes}, more data follows)"
                )
        if torn:
            with open(path, "r+b") as fixer:
                fixer.truncate(valid_bytes)
        handle = open(path, "ab")
        return cls(path, epoch, handle, op_count=len(ops), fsync=fsync), ops

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _append(self, payload: dict) -> None:
        if self._refusal is not None:
            raise WalError(f"write-ahead log {self.path!r} refuses appends: {self._refusal}")
        self._file.write(_encode_record(payload))
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())
        self.op_count += 1

    def append_add(self, tid: int, penn_text: str) -> None:
        """Durably record the addition of one tree."""
        self._append({"op": "add", "tid": tid, "tree": penn_text})

    def append_delete(self, tid: int) -> None:
        """Durably record the deletion of one tree."""
        self._append({"op": "delete", "tid": tid})

    def move_to(self, path: str) -> None:
        """Rename the log to *path*, over whatever is there; a log that
        fsyncs fsyncs the directory too, so the rename survives a power loss
        (the ops appended after it go to this file)."""
        os.replace(self.path, path)
        self.path = path
        if self._fsync:
            fsync_path(os.path.dirname(os.path.abspath(path)))

    def refuse(self, reason: str) -> None:
        """Close the log for good: every later append raises :class:`WalError`
        naming *reason*, and nothing is acknowledged that a reopen would not
        replay."""
        self.close()
        self._refusal = reason

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Current size of the log file in bytes."""
        self._file.flush()
        return os.path.getsize(self.path)

    def close(self) -> None:
        """Close the log file handle."""
        if self._file is not None:
            self._file.close()
            self._file = None  # type: ignore[assignment]

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
