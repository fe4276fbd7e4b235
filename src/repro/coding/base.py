"""Common interfaces of the posting coding schemes.

The index builder extracts *occurrences* of subtrees from data trees: per
tree and index key, the ``(pre, post, level)`` codes of each occurrence's
nodes listed in the canonical order of the key -- or, for a scheme that
stores nothing below an occurrence's root, the keys rooted at each node.  A
coding scheme says which flat rows of ints those become, on which keys, writes
them for storage in the B+Tree and hands them back as columns at query time.
That stored form (a row count, then varint rows, each tid a gap) is written,
cut and read here only: :class:`StoredList`, :func:`encoded_lists`.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from itertools import accumulate, compress
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.coding.postings import PostingColumns
from repro.storage.codec import (
    decode_varint,
    decode_varint_run,
    encode_varint,
    encode_varint_list,
)

#: A node's interval code as a plain ``(pre, post, level)`` triple.
Code = Tuple[int, int, int]
#: A tree's rows as :meth:`CodingScheme.rows` yields them, each with its keys.
Rows = Iterable[Tuple[Sequence[int], Iterable[str]]]

_SMALL = [bytes((value,)) for value in range(0x80)]  # a varint below 128 is its own byte
_UNREAD = (0, b"", PostingColumns([]))  # no byte of a list decoded yet
#: A row of ``%d + 1`` varints: its tid gap, then (group 1) the values after it.
_ROW = rb"[\x80-\xff]*[\x00-\x7f]((?:[\x80-\xff]*[\x00-\x7f]){%d})"


class StoredList(bytearray):
    """A key's posting list as the B+Tree stores it but for the row ``count``:
    each row's varints, its tid the gap from ``last``, the row before's (or
    0); ``read`` is what :meth:`CodingScheme.decode_appended` last decoded."""

    __slots__ = ("count", "last", "read")

    def __init__(self) -> None:
        self.count, self.last, self.read = 0, 0, _UNREAD

    def encoded(self) -> bytes:
        """The list as the B+Tree stores it: the row count, then the rows."""
        return encode_varint(self.count) + self


def row_count(data: bytes) -> int:
    """The row count a stored list leads with."""
    return decode_varint(data)[0]


def encoded_lists(source, dead: AbstractSet[int] = frozenset()) -> Iterator[Tuple[bytes, bytes]]:
    """What a compaction writes of *source* (an index file, the live delta):
    its ``raw_items()`` less the rows of the trees in *dead*
    (:meth:`CodingScheme.cut`), a key left with no row not at all."""
    for key, raw in source.raw_items():
        kept = source.coding.cut(raw, dead)
        if kept is not None:
            yield key, kept


class CodingScheme(ABC):
    """Strategy interface for the three coding schemes of Section 4.4.

    A scheme says what one *row* is -- the flat ints of one posting, tree id
    first -- and on which keys' lists a tree's rows go (:meth:`rows`).  A
    key's rows end to end are its *body*: the builder writes them in their
    stored form (:meth:`write_tree`), a compaction splices the stored runs
    it keeps (:meth:`cut`) and the columns the join reads are its slices.
    """

    #: Short machine name used in file metadata and experiment reports.
    name: str = "abstract"
    #: ``True`` when a row is a function of ``(tid, key, root)`` alone: the
    #: builder then extracts each root's key texts, not every embedding.
    roots_only: bool = True

    # ------------------------------------------------------------------
    @abstractmethod
    def rows(self, tid: int, heads: Sequence[Code], found: Sequence) -> Rows:
        """Yield ``(row, key texts)``: each row tree *tid* contributes, once, with the keys it is on.

        *heads* are the tree's node codes in pre-order and *found*, parallel
        to them, what the extraction returned for the tree:
        :func:`repro.core.enumeration.extract_root_texts` when
        :attr:`roots_only`, else :func:`~repro.core.enumeration.extract_subtrees`.
        A key's rows come deduplicated and in the order they are stored in;
        its list is the concatenation of its trees' rows in ascending ``tid``.
        """

    @abstractmethod
    def width(self, body: Sequence[int]) -> int:
        """Values per row of a key's (non-empty) *body*."""

    def write_tree(self, lists: Dict[str, StoredList], tid: int, rows: Rows) -> None:
        """Write tree *tid*'s *rows* (:meth:`rows`; *tid* is at least every tid
        written before) onto their keys' lists in *lists*, made as needed: a
        row's values after its tid are encoded once and go behind each key's
        tid gap in one ``+=``, which a racing reader sees whole."""
        small, get = _SMALL, lists.get
        for row, keys in rows:
            tail = encode_varint_list(row[1:])
            for key in keys:
                stored = get(key)
                if stored is None:
                    stored = lists[key] = StoredList()
                gap = tid - stored.last  # never negative: encode_varint refuses it
                stored += (small[gap] if 0 <= gap < 0x80 else encode_varint(gap)) + tail
                stored.last = tid
                stored.count += 1

    # ------------------------------------------------------------------
    def decode_rows(self, data: bytes, offset: int = 0, base: int = 0) -> Tuple[Sequence[int], int, List[int]]:
        """The rows stored in *data* from *offset* on, the first tid the gap
        from *base*, as ``(body, width, absolute tids)``.  The first value (a
        list's first tid, or the gap before rows appended to it) is often
        wide: decoded apart, a 0 in its place, it leaves the body ``bytes``."""
        first, offset = decode_varint(data, offset)
        rest = decode_varint_run(data, offset)
        body = [0, *rest] if type(rest) is list else b"\x00" + rest  # bytes, from bytes or a bytearray
        width = self.width(body)
        return body, width, list(accumulate(body[width::width], initial=base + first))

    def decode_appended(self, stored: StoredList) -> PostingColumns:
        """The columns of *stored*, a list rows are still appended to: only the
        rows appended since the last call are decoded (:meth:`decode_rows`),
        and what was read is remembered in ``stored.read``."""
        read, body, columns = stored.read
        added = stored[read:]  # whole rows: each is appended in one +=
        if added:
            run, width, tids = self.decode_rows(added, 0, columns.tids[-1] if read else 0)
            body = body + run if type(body) is type(run) else [*body, *run]  # what was handed out stays
            columns = PostingColumns.from_body(body, width, columns.tids + tids)
            stored.read = (read + len(added), body, columns)
        return columns

    def cut(self, data: bytes, dead: AbstractSet[int]) -> Optional[bytes]:
        """The stored list *data* less the rows of the trees in *dead*, for a
        compaction to write: each run of rows kept is copied as the bytes it
        was stored as, and only the row count and the tid gap after each cut
        are encoded again.  *data* itself when no dead tree is in it, ``None``
        when no row is left."""
        if not dead or data[:1] == b"\x00":  # nothing to cut, or a list of no rows
            return data
        count, offset = decode_varint(data, 0)
        body, width, tids = self.decode_rows(data, offset)
        if len(body) != count * width:
            raise ValueError(
                f"corrupt posting list: {count} records of {width} values, {len(body)} values found"
            )
        if dead.isdisjoint(tids):
            return data
        if type(body) is list:  # a value past the first is wide: each row is found
            found = re.compile(_ROW % (width - 1)).finditer(data, offset)
            starts, ends = zip(*(row.span(1) for row in found))
        else:  # every value past the first is its own byte
            first = len(data) - len(body) + 1  # past the first tid
            starts, ends = range(first, len(data) + 1, width), range(first + width - 1, len(data) + 1, width)
        pieces, kept, last, row = [b""], 0, 0, 0  # row: the first of the run being kept
        for stop in [*compress(range(count), map(dead.__contains__, tids)), count]:  # dead rows, the end
            if row < stop:
                gap = tids[row] - last
                pieces += _SMALL[gap] if gap < 0x80 else encode_varint(gap), data[starts[row]:ends[stop - 1]]
                kept, last = kept + stop - row, tids[stop - 1]
            row = stop + 1
        pieces[0] = encode_varint(kept)
        return b"".join(pieces) if kept else None

    def decode_postings(self, data: bytes) -> PostingColumns:
        """Deserialise a stored list (:meth:`StoredList.encoded`, :meth:`cut`) whole.

        The result is columnar -- field ``f`` of all rows is the strided
        slice ``body[f::width]`` of the varint body, tids summed from their
        gaps -- and equal to the columns of the body that was encoded.
        A body that is not exactly ``count * width`` values long is corrupt.
        """
        count, offset = decode_varint(data, 0)
        body = decode_varint_run(data, offset)
        width = self.width(body)
        if len(body) != count * width:
            raise ValueError(
                f"corrupt posting list: {count} records of {width} values, {len(body)} values found"
            )
        return PostingColumns.from_body(body, width, list(accumulate(body[0::width])))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Type[CodingScheme]] = {}


def register_coding(cls: Type[CodingScheme]) -> Type[CodingScheme]:
    """Class decorator adding a coding scheme to the global registry."""
    _REGISTRY[cls.name] = cls
    return cls


def get_coding(name: str) -> CodingScheme:
    """Instantiate a coding scheme by its registered name.

    Valid names are ``"filter"``, ``"root-split"`` and ``"subtree-interval"``.
    """
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown coding scheme {name!r} (known: {known})") from None


def coding_names() -> List[str]:
    """Names of all registered coding schemes."""
    return sorted(_REGISTRY)
