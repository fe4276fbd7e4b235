"""The Subtree Index (SI): building, opening and probing.

An index is parameterised by the corpus, the maximum subtree size ``mss`` and
a coding scheme.  Construction extracts every unique subtree of sizes
``1..mss`` as a key (Section 4.2), accumulates the coding scheme's postings
per key and bulk-loads the key/posting-list pairs into a disk B+Tree
(Section 6.1).  Metadata (mss, coding, corpus size, counters) is stored under
a reserved key inside the same file so an index is self-describing.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.coding.base import CodingScheme, StoredList, get_coding, row_count, row_tail
from repro.coding.postings import PostingColumns
from repro.core.enumeration import extract_root_texts, extract_subtrees, number
from repro.core.keys import SubtreeKey, canonical_key
from repro.storage.bptree import MAGIC, BPlusTree, ProbeStats
from repro.trees.node import Node, ParseTree
from repro.trees.penn import Numbering

#: Reserved B+Tree key that stores the index metadata record.
_META_KEY = b"\x00__si_meta__"

#: Fixed byte length of the serialised metadata record.  The record is
#: written twice -- during the bulk load with ``build_seconds=0.0`` and
#: again with the measured time -- and ``BPlusTree.overwrite`` replaces a
#: value only with one of the same length, so that no page of the tightly
#: packed tree moves for the digits of a build time.
_META_RECORD_LENGTH = 256


@dataclass
class IndexMetadata:
    """Self-describing metadata stored inside every subtree index file."""

    mss: int
    coding: str
    tree_count: int
    key_count: int
    posting_count: int
    build_seconds: float

    def to_json(self) -> bytes:
        """Serialise the metadata record, padded to a fixed length."""
        record = asdict(self)
        record["build_seconds"] = round(self.build_seconds, 6)
        encoded = json.dumps(record).encode("utf-8")
        # len(', "pad": ""') == 11: the padding field's own JSON overhead.
        padding = _META_RECORD_LENGTH - len(encoded) - 11
        if padding >= 0:
            record["pad"] = " " * padding
            encoded = json.dumps(record).encode("utf-8")
        return encoded

    @classmethod
    def from_json(cls, data: bytes) -> "IndexMetadata":
        """Parse a metadata record written by :meth:`to_json`."""
        record = json.loads(data.decode("utf-8"))
        record.pop("pad", None)
        return cls(**record)


def tree_rows(
    tid: int, numbering: Numbering, mss: int, coding: CodingScheme
) -> Iterable[Tuple[str, Sequence[int]]]:
    """``(key text, row)`` for every posting *coding* stores of tree *tid*.

    Only a coding that stores nodes below a key's root needs every embedding
    extracted; the others get the keys rooted at each node.
    """
    extract = extract_root_texts if coding.roots_only else extract_subtrees
    return coding.rows(tid, numbering[1], extract(numbering, mss))


def numbered(trees: Iterable[ParseTree]) -> Iterator[Tuple[int, Numbering]]:
    """``(tid, numbering)`` of each node tree, what a build extracts from."""
    for tree in trees:
        yield tree.tid, number(tree)


def accumulate_posting_lists(
    trees: Iterable[Tuple[int, Numbering]], mss: int, coding: CodingScheme,
    lists: Optional[Dict[str, StoredList]] = None,
) -> Tuple[Dict[str, StoredList], int]:
    """Extract and code every ``(tid, numbering)`` into *lists* (a new dict
    by default); returns ``(key text -> stored list, tree count)``.

    The one loop behind an index build (over :func:`numbered` node trees), a
    shard worker and a live delta's ``add_tree`` (one tree, numbered by
    :func:`~repro.trees.penn.scan_penn`, into the delta's lists).  A row goes
    onto its key's list as it is written (:meth:`StoredList.append`); trees
    arrive in ascending tid order.
    """
    lists = {} if lists is None else lists
    tree_count = 0
    for tid, numbering in trees:
        tree_count += 1
        row_coded = None
        for text, row in tree_rows(tid, numbering, mss, coding):
            if row is not row_coded:  # one row object serves all a root's keys (filter: a tree's)
                row_coded, tail = row, row_tail(row)
            stored = lists.get(text)
            if stored is None:
                stored = lists[text] = StoredList()
            stored.append(tid, tail)
    return lists, tree_count


def encode_posting_lists(lists: Dict[str, StoredList]) -> Iterator[Tuple[bytes, bytes]]:
    """Yield ``(key, stored list)`` in key order (a text's order is its
    UTF-8 bytes'), emptying *lists*: each list is dropped as it is yielded."""
    for text in sorted(lists):
        yield text.encode("utf-8"), lists.pop(text).encoded()


class SubtreeIndex:
    """One index file: its B+Tree of key -> encoded posting list, and the build.

    The reader of every part of an index -- a plain index file, a shard, a
    live segment.  What serves queries is the ``SegmentSet`` over such
    parts; a plain file opens as the set of one with ``SegmentSet.open``.
    """

    def __init__(self, tree: BPlusTree, coding: CodingScheme, metadata: IndexMetadata):
        self._tree = tree
        self.coding = coding
        self.metadata = metadata
        #: Lookup counters: ``gets`` per :meth:`lookup`, ``tree_descents``
        #: answered by the B+Tree (every one: this reader caches nothing) and
        #: ``node_decodes`` the node images those descents had to parse.
        self.probe_stats = ProbeStats()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        trees: Iterable[ParseTree],
        mss: int,
        coding: CodingScheme | str,
        path: str,
    ) -> "SubtreeIndex":
        """Build an index over *trees* at *path* and return it opened.

        Subtrees of sizes ``1..mss`` are extracted from every tree and the
        coding scheme's rows for them appended to each key's list in its
        stored form (:func:`accumulate_posting_lists`); the lists are then
        bulk-loaded into the B+Tree in key order (:meth:`write_posting_lists`).
        """
        if isinstance(coding, str):
            coding = get_coding(coding)
        started = time.perf_counter()
        lists, tree_count = accumulate_posting_lists(numbered(trees), mss, coding)
        return cls.write_posting_lists(path, mss, coding, tree_count, encode_posting_lists(lists), started)

    @classmethod
    def write_posting_lists(
        cls,
        path: str,
        mss: int,
        coding: CodingScheme,
        tree_count: int,
        encoded: Iterable[Tuple[bytes, bytes]],
        started: float,
    ) -> "SubtreeIndex":
        """Write an index file from finished posting lists and return it opened.

        *encoded* yields ``(key, encoded list)`` in ascending key order --
        fresh from :meth:`build`, or merged out of lists that were already
        indexed when a live index compacts.  *started* is the ``perf_counter``
        reading the recorded build time counts from.
        """
        items: List[Tuple[bytes, bytes]] = [(_META_KEY, b""), *encoded]
        metadata = IndexMetadata(
            mss=mss,
            coding=coding.name,
            tree_count=tree_count,
            key_count=len(items) - 1,
            posting_count=sum(row_count(value) for _, value in items[1:]),
            build_seconds=0.0,
        )
        items[0] = (_META_KEY, metadata.to_json())

        btree = BPlusTree(path)
        btree.bulk_load(items)
        metadata.build_seconds = time.perf_counter() - started
        btree.overwrite(_META_KEY, metadata.to_json())  # the final build time
        return cls(btree, coding, metadata)

    @classmethod
    def open(cls, path: str) -> "SubtreeIndex":
        """Open one existing index file.

        Anything else -- a manifest, an empty or foreign file -- is refused
        before the B+Tree sees it (which would initialise an empty file);
        ``SegmentSet.open`` opens whatever an index path names.
        """
        if not os.path.exists(path):
            # BPlusTree initialises missing files; opening an index must not.
            raise FileNotFoundError(f"no such index file: {path}")
        with open(path, "rb") as handle:
            if handle.read(len(MAGIC)) != MAGIC:
                raise ValueError(
                    f"{path!r} is not an index file; SegmentSet.open opens a manifest too"
                )
        btree = BPlusTree(path)
        raw = btree.get(_META_KEY)
        if raw is None:
            btree.close()
            raise ValueError(f"{path!r} is not a subtree index (missing metadata)")
        metadata = IndexMetadata.from_json(raw)
        return cls(btree, get_coding(metadata.coding), metadata)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @staticmethod
    def _normalise_key(key: bytes | str | SubtreeKey | Node) -> bytes:
        if isinstance(key, bytes):
            return key
        if isinstance(key, str):
            return key.encode("utf-8")
        if isinstance(key, SubtreeKey):
            return key.encode()
        if isinstance(key, Node):
            encoded, _ = canonical_key(key)
            return encoded
        raise TypeError(f"unsupported key type {type(key).__name__}")

    def lookup(self, key: bytes | str | SubtreeKey | Node) -> PostingColumns:
        """Return the posting list of *key* (empty when the key is not indexed).

        *key* may be canonical bytes, a canonical string, a parsed
        :class:`SubtreeKey` or a :class:`~repro.trees.node.Node` subtree; the
        latter two are canonicalised before the lookup.  Every call descends
        the B+Tree and decodes the list.
        """
        stats, tree, tree_stats = self.probe_stats, self._tree, self._tree.probe_stats
        stats.gets += 1
        stats.tree_descents += 1
        decodes_before = tree_stats.node_decodes
        raw = tree.get(key if isinstance(key, bytes) else self._normalise_key(key))
        stats.node_decodes += tree_stats.node_decodes - decodes_before
        return PostingColumns(()) if raw is None else self.coding.decode_postings(raw)

    def reset_probe_stats(self) -> ProbeStats:
        """Zero the lookup counters and return the pre-reset snapshot."""
        snapshot = self.probe_stats.snapshot()
        self.probe_stats.reset()
        return snapshot

    # ------------------------------------------------------------------
    # Iteration and statistics
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[bytes, PostingColumns]]:
        """Yield ``(canonical key bytes, decoded posting list)`` pairs."""
        for key, value in self.raw_items():
            yield key, self.coding.decode_postings(value)

    def raw_items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Yield ``(key bytes, encoded posting list)`` without decoding."""
        return ((key, value) for key, value in self._tree.items() if key != _META_KEY)

    @property
    def mss(self) -> int:
        """Maximum subtree size the index was built with."""
        return self.metadata.mss

    @property
    def key_count(self) -> int:
        """Number of unique subtrees (index keys)."""
        return self.metadata.key_count

    @property
    def posting_count(self) -> int:
        """Total number of postings stored in the index."""
        return self.metadata.posting_count

    def size_bytes(self) -> int:
        """Size of the index file on disk in bytes."""
        return self._tree.size_bytes()

    def page_census(self) -> Dict[str, Dict[str, int]]:
        """Where those bytes are (:meth:`repro.storage.bptree.BPlusTree.page_census`)."""
        return self._tree.page_census()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying B+Tree file."""
        self._tree.close()

    def closer(self) -> Callable[[], None]:
        """What :meth:`close` calls, holding no reference to this index: for a
        finalizer that closes the file once the index is unreachable."""
        return self._tree.close

    def __enter__(self) -> "SubtreeIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
