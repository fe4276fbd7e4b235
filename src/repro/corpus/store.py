"""Corpus containers and the flat on-disk "data file".

Section 6.1 of the paper: *"We also flattened and sequentially stored parse
trees in a separate file, which we call the data file."*  The data file is
what the filtering phase of the filter-based coding reads back to validate
candidate trees, and its size is the yardstick the paper compares index sizes
against.

Two classes are provided:

* :class:`Corpus` -- an in-memory, indexable collection of parse trees used by
  generators, tests and small experiments.
* :class:`TreeStore` -- an append-only binary file of flattened trees with an
  in-memory ``tid -> offset`` table, supporting random access by tree id.
"""

from __future__ import annotations

import io
import os
import struct
import threading
from typing import Dict, Iterable, Iterator, List, Optional

from repro.trees.node import ParseTree
from repro.trees.penn import parse_penn, to_penn


class Corpus:
    """An in-memory corpus of parse trees addressable by tree id."""

    def __init__(self, trees: Optional[Iterable[ParseTree]] = None):
        self._trees: List[ParseTree] = []
        self._by_tid: Dict[int, ParseTree] = {}
        if trees:
            for tree in trees:
                self.add(tree)

    # ------------------------------------------------------------------
    def add(self, tree: ParseTree) -> None:
        """Add a tree; assigns the next sequential tid when it has none."""
        if tree.tid < 0:
            tree.tid = len(self._trees)
        if tree.tid in self._by_tid:
            raise ValueError(f"duplicate tree id {tree.tid}")
        self._trees.append(tree)
        self._by_tid[tree.tid] = tree

    def get(self, tid: int) -> ParseTree:
        """Return the tree with identifier *tid*."""
        try:
            return self._by_tid[tid]
        except KeyError:
            raise KeyError(f"no tree with tid {tid}") from None

    def __contains__(self, tid: int) -> bool:
        return tid in self._by_tid

    def __len__(self) -> int:
        return len(self._trees)

    def __iter__(self) -> Iterator[ParseTree]:
        return iter(self._trees)

    def __getitem__(self, index: int) -> ParseTree:
        return self._trees[index]

    def tids(self) -> List[int]:
        """All tree identifiers in insertion order."""
        return [tree.tid for tree in self._trees]

    def total_nodes(self) -> int:
        """Total number of nodes across all trees."""
        return sum(tree.size() for tree in self._trees)

    # ------------------------------------------------------------------
    def to_penn_lines(self) -> Iterator[str]:
        """Yield one bracketed line per tree (round-trips via ``from_penn_lines``)."""
        for tree in self._trees:
            yield to_penn(tree.root)

    @classmethod
    def from_penn_lines(cls, lines: Iterable[str]) -> "Corpus":
        """Build a corpus from bracketed lines, assigning sequential tids."""
        corpus = cls()
        for line in lines:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            corpus.add(ParseTree(parse_penn(stripped), tid=len(corpus)))
        return corpus

    def save(self, path: str | os.PathLike) -> None:
        """Write the corpus as a text file of bracketed lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.to_penn_lines():
                handle.write(line + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Corpus":
        """Read a corpus previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_penn_lines(handle)


def data_file_path(index_path: str) -> str:
    """The data-file path conventionally stored next to a subtree index.

    The single home of the ``<index>.data`` naming convention: the CLI's
    ``build`` writes it and ``SegmentSet.open`` reads it, so the two can
    never drift apart.
    """
    return index_path + ".data"


_HEADER = struct.Struct("<II")  # (tid, payload length)


class TreeStore:
    """Append-only binary data file of flattened parse trees.

    Each record is ``<tid:uint32> <length:uint32> <utf-8 bracketed tree>``.
    An in-memory offset table provides O(1) random access by tree id, which
    is what the filtering phase needs: fetch candidate trees by tid and run
    the exact matcher over them.

    Record access goes through one shared file handle whose seek+read (and
    seek+write) pairs are serialised by a lock, so concurrent ``get`` calls
    -- e.g. filtering phases fanning out across threads -- never interleave
    on the handle.  Parsing happens outside the lock.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._offsets: Dict[int, int] = {}
        self._file: Optional[io.BufferedRandom] = None
        self._lock = threading.Lock()
        if os.path.exists(self.path):
            self._open()
            self._build_offset_table()
        else:
            with open(self.path, "wb"):
                pass
            self._open()

    # ------------------------------------------------------------------
    def _open(self) -> None:
        self._file = open(self.path, "r+b")

    def _build_offset_table(self) -> None:
        assert self._file is not None
        self._offsets.clear()
        self._file.seek(0)
        while True:
            offset = self._file.tell()
            header = self._file.read(_HEADER.size)
            if len(header) < _HEADER.size:
                break
            tid, length = _HEADER.unpack(header)
            self._offsets[tid] = offset
            self._file.seek(length, os.SEEK_CUR)

    # ------------------------------------------------------------------
    def append(self, tree: ParseTree) -> None:
        """Append one tree to the data file (``ValueError`` if ``to_penn`` refuses it)."""
        self.append_record(tree.tid, to_penn(tree.root).encode("utf-8"))

    def append_record(self, tid: int, payload: bytes) -> None:
        """Append one stored record: *payload* is the tree's UTF-8 bracketed text."""
        assert self._file is not None
        with self._lock:
            self._file.seek(0, os.SEEK_END)
            offset = self._file.tell()
            self._file.write(_HEADER.pack(tid, len(payload)))
            self._file.write(payload)
            self._offsets[tid] = offset

    def extend(self, trees: Iterable[ParseTree]) -> None:
        """Append many trees."""
        for tree in trees:
            self.append(tree)

    def get(self, tid: int) -> ParseTree:
        """Fetch and re-parse the tree with identifier *tid* (thread-safe)."""
        return ParseTree(parse_penn(self.record(tid).decode("utf-8")), tid=tid)

    def record(self, tid: int) -> bytes:
        """The stored bytes of tree *tid*, unparsed (thread-safe).

        What a compaction copies into a rewritten segment's data file
        (:meth:`append_record`) instead of parsing and re-rendering the tree.
        """
        assert self._file is not None
        try:
            offset = self._offsets[tid]
        except KeyError:
            raise KeyError(f"no tree with tid {tid}") from None
        with self._lock:
            self._file.seek(offset)
            _, length = _HEADER.unpack(self._file.read(_HEADER.size))
            return self._file.read(length)

    def __contains__(self, tid: int) -> bool:
        return tid in self._offsets

    def __iter__(self) -> Iterator[ParseTree]:
        """Stream every tree in :meth:`tids` order without materialising the store.

        Walks the offset table on a dedicated read handle, so iteration
        neither builds a list of trees nor disturbs the seek position used
        by concurrent :meth:`get` calls, and it always agrees with
        :meth:`get` -- including for a tid whose record was
        re-appended (the superseded physical record is skipped).  Offsets
        are ascending for append-only stores, so the pass stays sequential.
        Records appended after the iterator was created are not yielded.
        """
        self.flush()
        offsets = list(self._offsets.values())
        with open(self.path, "rb") as handle:
            for offset in offsets:
                handle.seek(offset)
                header = handle.read(_HEADER.size)
                tid, length = _HEADER.unpack(header)
                payload = handle.read(length).decode("utf-8")
                yield ParseTree(parse_penn(payload), tid=tid)

    def __len__(self) -> int:
        return len(self._offsets)

    def tids(self) -> List[int]:
        """All stored tree identifiers in file order."""
        return list(self._offsets)

    def size_bytes(self) -> int:
        """Current size of the data file in bytes."""
        assert self._file is not None
        self._file.flush()
        return os.path.getsize(self.path)

    def flush(self) -> None:
        """Flush buffered writes to disk."""
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        """Close the underlying file handle."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "TreeStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @classmethod
    def build(cls, path: str | os.PathLike, trees: Iterable[ParseTree]) -> "TreeStore":
        """Create a data file at *path* containing *trees*."""
        if os.path.exists(path):
            os.remove(path)
        store = cls(path)
        store.extend(trees)
        store.flush()
        return store
