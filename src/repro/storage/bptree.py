"""A disk-resident B+Tree mapping byte-string keys to byte-string values.

This is the physical structure behind the subtree index ("our subtree index
was implemented as a native disk-based B+Tree index", Section 6.1).  Keys are
canonical subtree encodings, values are serialised posting lists.  Values
larger than a quarter page go end to end into the tree's one overflow stream,
a chain of pages, so that posting lists of any size can be stored while
keeping leaf pages balanced; a leaf stores each key as the suffix the key
before it does not share (``docs/architecture.md`` has both page layouts and
the v1 ones this reader still opens).

A tree is written once, as the paper builds its index once over a static
corpus: :meth:`BPlusTree.bulk_load` writes a new file from key-sorted pairs,
and a tree opened from an existing file is read-only -- point lookups and
ordered iteration.  The one write after the load is
:meth:`BPlusTree.overwrite`, which swaps an inline value for one of the same
length in its leaf, so no page splits or moves.

Nodes are parsed once: the decoded :class:`_Leaf` / :class:`_Internal` image
of a page is what the pager keeps resident for it (see
:mod:`repro.storage.pager`), so a warm lookup is two ``bisect`` calls over
ready lists rather than a re-parse of every record on the path.  Once the
file is written an image is what its page holds for as long as it is
resident, so a scan may hold one across ``yield``.
"""

from __future__ import annotations

import struct
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from operator import ge
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.storage.codec import decode_varint, encode_length_prefixed, encode_varint, varint_size
from repro.storage.pager import PAGE_SIZE, Pager

_META = struct.Struct("<4sIIQ")  # magic, root page, height, entry count
#: The first four bytes of every tree file.
MAGIC = b"SIBT"

_NODE_INTERNAL = 1
_NODE_LEAF_V1 = 2  # keys stored whole: read, never written
_NODE_OVERFLOW = 3
_NODE_LEAF = 4

_UINT32 = struct.Struct("<I")
_OVERFLOW_HEADER = struct.Struct("<BIH")  # type, next page, bytes used in page
_POINTER = struct.Struct("<IIH")  # first page, total length, offset in that page's bytes


class BPlusTreeError(RuntimeError):
    """Raised on malformed tree files or invalid operations."""


@dataclass
class ProbeStats:
    """Counters describing how lookups were served.

    ``gets`` counts every lookup (:meth:`BPlusTree.get`, or an index's
    ``lookup``), ``cache_hits`` the ones a query service answered from its
    posting cache -- always zero on a tree or an index -- and
    ``tree_descents`` the ones that walked the tree (the on-disk probe the
    paper's Section 6 costs out).
    ``node_decodes`` counts the node images parsed from raw pages on the way:
    zero per descent once the path is resident, so it tells a cold tree from
    a warm one.

    The counters are deliberately maintained without a lock so the cache-hit
    fast path stays contention-free: they are exact in single-threaded use
    (what every test asserts on) and may undercount slightly under
    concurrent serving.  Treat them as telemetry, not an invariant, when
    multiple threads are involved.
    """

    gets: int = 0
    cache_hits: int = 0
    tree_descents: int = 0
    node_decodes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never probed)."""
        return self.cache_hits / self.gets if self.gets else 0.0

    def snapshot(self) -> "ProbeStats":
        """An immutable copy of the current counters."""
        return ProbeStats(self.gets, self.cache_hits, self.tree_descents, self.node_decodes)

    def reset(self) -> None:
        """Zero all counters."""
        self.gets = 0
        self.cache_hits = 0
        self.tree_descents = 0
        self.node_decodes = 0

    def __iadd__(self, other: "ProbeStats") -> "ProbeStats":
        """Add *other*'s counters in (per-shard / per-segment roll-ups)."""
        self.gets += other.gets
        self.cache_hits += other.cache_hits
        self.tree_descents += other.tree_descents
        self.node_decodes += other.node_decodes
        return self


class _Leaf:
    """In-memory image of a leaf page (read-only once resident, but for the
    value :meth:`BPlusTree.overwrite` swaps while the tree is being written)."""

    __slots__ = ("keys", "values", "next_leaf")

    def __init__(self, keys: Optional[List[bytes]] = None,
                 values: Optional[List[Tuple[bool, bytes]]] = None,
                 next_leaf: int = 0):
        self.keys: List[bytes] = keys or []
        # Each value is (is_overflow, payload); payload is the inline value or
        # the ``_POINTER`` into the overflow stream.
        self.values: List[Tuple[bool, bytes]] = values or []
        self.next_leaf = next_leaf


class _Internal:
    """In-memory image of an internal page (read-only once resident)."""

    __slots__ = ("keys", "children")

    def __init__(self, keys: Optional[List[bytes]] = None, children: Optional[List[int]] = None):
        self.keys: List[bytes] = keys or []
        self.children: List[int] = children or []


def _prefixed_size(payload: bytes) -> int:
    """Bytes of *payload* stored behind its varint length."""
    return varint_size(len(payload)) + len(payload)


def _shared_prefix(previous: bytes, key: bytes) -> int:
    """Length of the prefix *key* shares with *previous*, capped at the 255 a
    leaf record's one byte can say.  No per-byte loop: the first byte the two
    differ in is the highest set byte of their XOR as big-endian integers."""
    width = min(len(previous), len(key), 255)
    difference = int.from_bytes(previous[:width], "big") ^ int.from_bytes(key[:width], "big")
    return width - (difference.bit_length() + 7) // 8


def _leaf_record(previous: bytes, key: bytes, value: Tuple[bool, bytes]) -> bytes:
    """One leaf record as written: the length *key* shares with the key before
    it in the leaf, the rest of *key*, the overflow flag and the payload."""
    shared = _shared_prefix(previous, key)
    suffix = key[shared:]
    is_overflow, payload = value
    if len(suffix) < 0x80 and len(payload) < 0x80:  # nearly every record: both lengths are one byte
        return b"%c%c%b%c%c%b" % (shared, len(suffix), suffix, is_overflow, len(payload), payload)
    return b"%c%b%c%b" % (
        shared, encode_length_prefixed(suffix), is_overflow, encode_length_prefixed(payload)
    )


def _leaf_records(leaf: _Leaf) -> List[bytes]:
    return list(map(_leaf_record, chain((b"",), leaf.keys), leaf.keys, leaf.values))


# The decoders parse a page in one pass and return the image with the offset
# its records end at.  Nearly every record is shorter than 128 bytes, so its
# length prefix is one byte that is its own value and is read in line; only
# longer records go through ``decode_varint``.  A slice past the end of the
# page comes back short instead of raising, hence the final offset check:
# offsets only grow, so one overrun anywhere shows there.
def _decode_leaf(data: bytes, front_coded: bool = True) -> Tuple[_Leaf, int]:
    next_leaf = _UINT32.unpack_from(data, 1)[0]
    count, offset = decode_varint(data, 1 + _UINT32.size)
    keys: List[bytes] = []
    values: List[Tuple[bool, bytes]] = []
    key = b""
    shared = 0  # a v1 leaf stores every key whole
    for _ in range(count):
        if front_coded:
            shared = data[offset]
            offset += 1
            if shared > len(key):
                raise ValueError("a key shares more than the key before it holds")
        length = data[offset]
        offset += 1
        if length > 0x7F:
            length, offset = decode_varint(data, offset - 1)
        end = offset + length
        key = key[:shared] + data[offset:end]
        keys.append(key)
        is_overflow = bool(data[end])
        length = data[end + 1]
        offset = end + 2
        if length > 0x7F:
            length, offset = decode_varint(data, end + 1)
        end = offset + length
        payload = data[offset:end]
        if is_overflow:
            if not front_coded:
                # A v1 pointer is (first page, varint length): its chain shares no page.
                first_page = _UINT32.unpack_from(payload, 0)[0]
                payload = _POINTER.pack(first_page, decode_varint(payload, _UINT32.size)[0], 0)
            elif length != _POINTER.size:
                raise ValueError(f"an overflow pointer of {length} bytes")
        values.append((is_overflow, payload))
        offset = end
    if offset > len(data):
        raise ValueError("leaf records run past the end of the page")
    return _Leaf(keys, values, next_leaf), offset


def _decode_internal(data: bytes) -> Tuple[_Internal, int]:
    count, offset = decode_varint(data, 1)
    keys: List[bytes] = []
    for _ in range(count):
        length = data[offset]
        offset += 1
        if length > 0x7F:
            length, offset = decode_varint(data, offset - 1)
        end = offset + length
        keys.append(data[offset:end])
        offset = end
    # ``unpack_from`` refuses to read past the end of the page.
    children = list(struct.unpack_from(f"<{count + 1}I", data, offset))
    return _Internal(keys, children), offset + _UINT32.size * (count + 1)


_NODE_DECODERS = {  # by the page's type byte
    _NODE_INTERNAL: _decode_internal,
    _NODE_LEAF: _decode_leaf,
    _NODE_LEAF_V1: partial(_decode_leaf, front_coded=False),
}


class BPlusTree:
    """Disk B+Tree over a :class:`~repro.storage.pager.Pager`.

    Parameters
    ----------
    path:
        File backing the tree.  An existing file is opened read-only; a
        missing one is created holding an empty tree, for one
        :meth:`bulk_load`.
    page_size:
        Page size in bytes (default 4096, as in the paper's setup).
    """

    def __init__(self, path: str, page_size: int = PAGE_SIZE):
        self.pager = Pager(path, page_size=page_size)
        self._overflow_threshold = page_size // 4
        # (page, bytes used) where the overflow stream ends; a full page, which
        # a new tree starts from, makes the first long value open one.
        self._stream_end = (0, page_size - _OVERFLOW_HEADER.size)
        #: Lookup counters (gets / cache hits / tree descents / node decodes).
        self.probe_stats = ProbeStats()
        # Lookups share one file handle (seek + read is not atomic) and the
        # pager's resident pages, whose recency order every access updates,
        # so `get` calls and each step of a scan serialise on this lock.  The
        # posting cache above the tree answers its hits without coming here,
        # which is what makes a warm cache scale across threads.
        self._descent_lock = threading.Lock()
        if self.pager.writable:
            self._root = self.pager.allocate()
            self._height = 1
            self._count = 0
            self._write_leaf(self._root, _Leaf())
            self._write_meta()
            return
        meta = self.pager.read(0) if self.pager.page_count else bytes(_META.size)  # an empty file
        magic, self._root, self._height, self._count = _META.unpack_from(meta, 0)
        if magic != MAGIC:
            self.pager.close()
            raise BPlusTreeError(f"not a B+Tree file: bad magic {magic!r}")

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def _write_meta(self) -> None:
        self.pager.write(0, _META.pack(MAGIC, self._root, self._height, self._count))

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Height of the tree (1 = a single leaf)."""
        return self._height

    def size_bytes(self) -> int:
        """Size of the index file in bytes."""
        return self.pager.size_bytes()

    def page_census(self) -> Dict[str, Dict[str, int]]:
        """Where the file's bytes are, by page type: ``pages``, ``payload_bytes``
        (header and records, up to the last byte a reader of the page looks
        at) and ``slack_bytes`` (the rest).  Reads every page from the file,
        past the resident images and the probe counters.
        """
        census: Dict[str, Dict[str, int]] = {}
        for page_id in range(self.pager.page_count):
            with self._descent_lock:
                data = self.pager.read_raw(page_id)
            if page_id == 0:
                name, used = "meta", _META.size
            elif data[0] == _NODE_OVERFLOW:
                name, used = "overflow", _OVERFLOW_HEADER.size + _OVERFLOW_HEADER.unpack_from(data, 0)[2]
            else:
                name = "internal" if data[0] == _NODE_INTERNAL else "leaf"
                used = self._decode(page_id, data)[1]
            row = census.setdefault(name, {"pages": 0, "payload_bytes": 0, "slack_bytes": 0})
            row["pages"] += 1
            row["payload_bytes"] += used
            row["slack_bytes"] += self.pager.page_size - used
        return census

    def close(self) -> None:
        """Close the backing file (everything was written when it was loaded)."""
        self.pager.close()

    def __enter__(self) -> "BPlusTree":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Page (de)serialisation
    # ------------------------------------------------------------------
    def _write_leaf(self, page_id: int, leaf: _Leaf, records: Optional[List[bytes]] = None) -> None:
        """Write *leaf*; *records* are its ``_leaf_records`` when the caller sized it by them."""
        if records is None:
            records = _leaf_records(leaf)
        out = b"%c%b%b%b" % (
            _NODE_LEAF, _UINT32.pack(leaf.next_leaf), encode_varint(len(records)), b"".join(records)
        )
        if len(out) > self.pager.page_size:
            raise BPlusTreeError("leaf serialisation exceeds the page size")
        self.pager.write(page_id, out)
        self.pager.keep(page_id, leaf)

    def _write_internal(self, page_id: int, node: _Internal) -> None:
        out = bytearray([_NODE_INTERNAL])
        out += encode_varint(len(node.keys))
        for key in node.keys:
            out += encode_length_prefixed(key)
        for child in node.children:
            out += _UINT32.pack(child)
        if len(out) > self.pager.page_size:
            raise BPlusTreeError("internal node serialisation exceeds the page size")
        self.pager.write(page_id, bytes(out))
        self.pager.keep(page_id, node)

    def _node(self, page_id: int) -> "_Leaf | _Internal":
        """The image of node page *page_id*, decoded on first touch.

        The caller holds ``_descent_lock``: it covers the shared file handle
        and the pager's recency order, which every hit updates.
        """
        image = self.pager.read(page_id)
        if isinstance(image, bytes):
            image, _ = self._decode(page_id, image)
            self.probe_stats.node_decodes += 1
            self.pager.keep(page_id, image)
        return image  # type: ignore[return-value]

    @staticmethod
    def _decode(page_id: int, data: bytes) -> "Tuple[_Leaf | _Internal, int]":
        """The node image of raw page *data* and the offset its records end at."""
        decode = _NODE_DECODERS.get(data[0])
        if decode is None:
            raise BPlusTreeError(f"page {page_id} is not a tree node (type {data[0]})")
        try:
            return decode(data)
        except (IndexError, ValueError, struct.error) as error:
            raise BPlusTreeError(f"page {page_id} is malformed: {error}") from error

    # ------------------------------------------------------------------
    # The overflow stream for large values
    # ------------------------------------------------------------------
    def _store_value(self, value: bytes) -> Tuple[bool, bytes]:
        """Return the leaf payload for *value*, appending it to the overflow stream if
        large: every page it touches is written here, the stream's last one
        again with the bytes it already held."""
        if len(value) <= self._overflow_threshold:
            return False, value
        header = _OVERFLOW_HEADER.size
        capacity = self.pager.page_size - header
        page_id, used = self._stream_end
        if used == capacity:
            page_id, used = self.pager.allocate(), 0
        pointer = _POINTER.pack(page_id, len(value), used)
        data = value
        if used:
            data = self.pager.read(page_id)[header:header + used] + value  # type: ignore[index]
        for start in range(0, len(data), capacity):
            chunk = data[start:start + capacity]
            next_page = self.pager.allocate() if start + capacity < len(data) else 0
            self.pager.write(page_id, _OVERFLOW_HEADER.pack(_NODE_OVERFLOW, next_page, len(chunk)) + chunk)
            self._stream_end = (page_id, len(chunk))
            page_id = next_page
        return True, pointer

    def _load_value(self, is_overflow: bool, payload: bytes) -> bytes:
        """The value behind a leaf payload."""
        if not is_overflow:
            return payload
        page_id, remaining, offset = _POINTER.unpack(payload)
        header = _OVERFLOW_HEADER.size
        capacity = self.pager.page_size - header
        parts: List[bytes] = []
        while remaining:
            data = self.pager.read(page_id)
            # A node image here means the chain points into the tree itself.
            if not isinstance(data, bytes) or data[0] != _NODE_OVERFLOW:
                raise BPlusTreeError(f"page {page_id} is not an overflow page")
            _, next_page, used = _OVERFLOW_HEADER.unpack_from(data, 0)
            # Every page of the stream but its last is full: the page holds
            # all the pointer says it does, or something is wrong.
            end = offset + remaining if offset + remaining < capacity else capacity
            if not offset < end <= used <= capacity:
                raise BPlusTreeError(
                    f"overflow page {page_id} is malformed: {used} of {capacity} bytes used, "
                    f"bytes {offset}-{end} expected"
                )
            parts.append(data[header + offset:header + end])
            remaining -= end - offset
            if remaining and not next_page:
                raise BPlusTreeError(f"overflow chain ends at page {page_id} with {remaining} bytes owed")
            page_id, offset = next_page, 0
        return b"".join(parts)

    # ------------------------------------------------------------------
    # Size accounting for splits and bulk loading
    # ------------------------------------------------------------------
    @staticmethod
    def _leaf_size(entry_count: int, entry_bytes: int) -> int:
        """Serialised size of a leaf of *entry_count* entries totalling *entry_bytes*."""
        return 1 + _UINT32.size + varint_size(entry_count) + entry_bytes

    @staticmethod
    def _internal_size(key_count: int, key_bytes: int) -> int:
        """Serialised size of an internal node: its length-prefixed keys and one more child."""
        return 1 + varint_size(key_count) + key_bytes + _UINT32.size * (key_count + 1)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _find_leaf(self, key: bytes) -> Tuple[int, _Leaf]:
        """Descend to the leaf responsible for *key*: its page id and image."""
        page_id = self._root
        node = self._node(page_id)
        while isinstance(node, _Internal):
            page_id = node.children[bisect_right(node.keys, key)]
            node = self._node(page_id)
        return page_id, node

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value stored under *key* or ``None`` (one tree descent)."""
        self.probe_stats.gets += 1
        if obs.enabled():
            with obs.trace("bptree.descent", key=key.decode("utf-8", "replace")) as span:
                reads_before = self.pager.read_count
                decodes_before = self.probe_stats.node_decodes
                with self._descent_lock:
                    value = self._get_from_tree(key)
                span.set(
                    page_reads=self.pager.read_count - reads_before,
                    nodes_decoded=self.probe_stats.node_decodes - decodes_before,
                    found=value is not None,
                )
            return value
        with self._descent_lock:
            return self._get_from_tree(key)

    def _get_from_tree(self, key: bytes) -> Optional[bytes]:
        """Point lookup; the caller must hold ``_descent_lock``."""
        self.probe_stats.tree_descents += 1
        _, leaf = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            is_overflow, payload = leaf.values[index]
            return self._load_value(is_overflow, payload)
        return None

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Yield all ``(key, value)`` pairs in key order.

        The lock is taken for each page fetched, never across a ``yield``:
        the caller may use the tree between two pairs.
        """
        with self._descent_lock:
            _, leaf = self._find_leaf(b"")
        while True:
            for key, (is_overflow, payload) in zip(leaf.keys, leaf.values):
                if is_overflow:
                    with self._descent_lock:
                        payload = self._load_value(True, payload)
                yield key, payload
            if not leaf.next_leaf:
                return
            with self._descent_lock:
                leaf = self._node(leaf.next_leaf)  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Writing, once
    # ------------------------------------------------------------------
    def bulk_load(self, items: Sequence[Tuple[bytes, bytes]]) -> None:
        """Build the tree bottom-up from key-sorted ``(key, value)`` pairs.

        This is how index construction writes its accumulated posting lists,
        into tightly packed pages, and the only way a tree gets its entries:
        once, into the empty tree of a file this handle created.
        """
        if not self.pager.writable or self._count:
            raise BPlusTreeError("a tree is written once: bulk_load needs the empty tree of a new file")
        # Checked before anything is written: a refused load leaves the file as it was.
        keys = [key for key, _ in items]
        if any(map(ge, keys, islice(keys, 1, None))):
            raise BPlusTreeError("bulk_load requires strictly increasing keys")
        if not items:
            return

        # Build the leaf level.  A record is encoded once, its length is its
        # size, and a leaf's size is kept as a running total: packing costs
        # one encoding per item, not one per item per item already in the leaf.
        page_size = self.pager.page_size
        leaf_pages: List[Tuple[bytes, int]] = []  # (first key, page id)
        current = _Leaf()
        records: List[bytes] = []
        current_bytes = 0
        current_page = self._root  # reuse the pre-allocated empty root leaf
        previous = b""
        for key, value in items:
            key = bytes(key)
            payload = self._store_value(value)
            record = _leaf_record(previous, key, payload)
            if records and self._leaf_size(len(records) + 1, current_bytes + len(record)) > page_size:
                leaf_pages.append((current.keys[0], current_page))
                next_page = self.pager.allocate()
                current.next_leaf = next_page
                self._write_leaf(current_page, current, records)
                current_page = next_page
                current = _Leaf()
                records = []
                current_bytes = 0
                record = _leaf_record(b"", key, payload)  # a leaf's first key is whole
            current.keys.append(key)
            current.values.append(payload)
            records.append(record)
            current_bytes += len(record)
            previous = key
        leaf_pages.append((current.keys[0], current_page))
        self._write_leaf(current_page, current, records)
        self._count = len(items)

        # Build internal levels bottom-up, sized the same way.
        level: List[Tuple[bytes, int]] = leaf_pages
        height = 1
        while len(level) > 1:
            next_level: List[Tuple[bytes, int]] = []
            node = _Internal(children=[level[0][1]])
            node_bytes = 0
            node_first_key = level[0][0]
            for first_key, page_id in level[1:]:
                key_bytes = _prefixed_size(first_key)
                if self._internal_size(len(node.keys) + 1, node_bytes + key_bytes) > page_size:
                    page = self.pager.allocate()
                    self._write_internal(page, node)
                    next_level.append((node_first_key, page))
                    node = _Internal(children=[page_id])
                    node_bytes = 0
                    node_first_key = first_key
                else:
                    node.keys.append(first_key)
                    node.children.append(page_id)
                    node_bytes += key_bytes
            page = self.pager.allocate()
            self._write_internal(page, node)
            next_level.append((node_first_key, page))
            level = next_level
            height += 1

        self._root = level[0][1]
        self._height = height
        self._write_meta()
        self.pager.flush()

    def overwrite(self, key: bytes, value: bytes) -> None:
        """Replace the inline value under *key* with *value* of the same length.

        The one write after :meth:`bulk_load` -- an index build stamps its
        metadata record with the build time -- and made to move nothing: the
        record keeps its length, so its leaf neither splits nor shifts.  A
        missing key, another length or a value in the overflow stream is
        refused, as is any write to a tree opened from a file.
        """
        if not self.pager.writable:
            raise BPlusTreeError("a tree opened from a file is read-only")
        with self._descent_lock:
            page_id, leaf = self._find_leaf(key)
            index = bisect_left(leaf.keys, key)
            if index == len(leaf.keys) or leaf.keys[index] != key:
                raise BPlusTreeError(f"no value under {key!r} to overwrite")
            is_overflow, payload = leaf.values[index]
            if is_overflow or len(payload) != len(value):
                raise BPlusTreeError(
                    f"{key!r} holds {'an overflow value' if is_overflow else f'{len(payload)} bytes'}: "
                    f"only an inline value of the same length is overwritten, not {len(value)} bytes"
                )
            leaf.values[index] = (False, bytes(value))
            self._write_leaf(page_id, leaf)
        self.pager.flush()
