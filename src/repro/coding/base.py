"""Common interfaces of the posting coding schemes.

The index builder extracts *occurrences* of subtrees from data trees: per
tree and index key, the ``(pre, post, level)`` codes of each occurrence's
nodes listed in the canonical order of the key -- or, for a scheme that
stores nothing below an occurrence's root, the keys rooted at each node.  A
coding scheme says which flat rows of ints those become, serialises a key's
rows for storage in the B+Tree and hands them back as columns at query time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import accumulate
from typing import AbstractSet, Dict, Iterable, List, Sequence, Tuple, Type

from repro.coding.postings import PostingColumns
from repro.storage.codec import (
    decode_varint,
    decode_varint_run,
    delta_gaps,
    encode_varint,
    encode_varint_list,
)

#: A node's interval code as a plain ``(pre, post, level)`` triple.
Code = Tuple[int, int, int]


class CodingScheme(ABC):
    """Strategy interface for the three coding schemes of Section 4.4.

    A scheme says what one *row* is -- the flat ints of one posting, tree id
    first -- and which rows a tree contributes to each key (:meth:`rows`).
    A key's rows end to end are its *body*, the unit of the write path: the
    builder appends to it, a compaction cuts dead trees' rows out of it
    (:meth:`cut_rows`), :meth:`encode_body` turns it into the stored bytes
    and the columns the join reads are strided slices of it.
    """

    #: Short machine name used in file metadata and experiment reports.
    name: str = "abstract"
    #: ``True`` when a row is a function of ``(tid, key, root)`` alone: the
    #: builder then extracts each root's key texts, not every embedding.
    roots_only: bool = True

    # ------------------------------------------------------------------
    @abstractmethod
    def rows(self, tid: int, heads: Sequence[Code], found: Sequence) -> Iterable[Tuple[str, Sequence[int]]]:
        """Yield ``(key text, row)`` for every posting tree *tid* contributes.

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

    # ------------------------------------------------------------------
    def columns(self, body: Sequence[int]) -> PostingColumns:
        """A body's columns (its tids are absolute: nothing is summed)."""
        if not body:
            return PostingColumns(())
        width = self.width(body)
        return PostingColumns.from_body(body, width, body[0::width])

    def encode_body(self, body: Sequence[int]) -> bytes:
        """Serialise a key's body: the row count, then the rows with the tid
        stride turned into gaps, as varints."""
        if not body:
            return encode_varint(0)
        width = self.width(body)
        flat = list(body)
        flat[0::width] = delta_gaps(body[0::width])
        # The first tid is the one value that is often wide (any list of a
        # later segment); the gaps and codes after it nearly always fit a
        # byte each, which is the case ``encode_varint_list`` is fast in.
        return encode_varint(len(flat) // width) + encode_varint(flat[0]) + encode_varint_list(flat[1:])

    def decode_body(self, data: bytes) -> List[int]:
        """The body :meth:`encode_body` was given, tids absolute, for a
        compaction to cut; its often wide first tid is decoded on its own,
        so the one-byte varints after it come back in one pass."""
        count, offset = decode_varint(data, 0)
        if not count:
            return []
        first, offset = decode_varint(data, offset)
        body = [first, *decode_varint_run(data, offset)]
        width = self.width(body)
        if len(body) != count * width:
            raise ValueError(
                f"corrupt posting list: {count} records of {width} values, {len(body)} values found"
            )
        body[0::width] = accumulate(body[0::width])
        return body

    def cut_rows(self, body: Sequence[int], dead: AbstractSet[int]) -> Sequence[int]:
        """*body* (tids absolute) less the rows of the trees in *dead*; *body*
        itself when it holds none.  The runs of rows between dead ones are
        copied a slice at a time."""
        width = self.width(body)
        tids = body[0::width]
        if dead.isdisjoint(tids):
            return body
        kept: List[int] = []
        start = 0  # the first row of the run being kept
        for row, tid in enumerate(tids):
            if tid in dead:
                kept += body[start * width:row * width]
                start = row + 1
        kept += body[start * width:]
        return kept

    def decode_postings(self, data: bytes) -> PostingColumns:
        """Deserialise a list produced by :meth:`encode_body`.

        The result is columnar -- field ``f`` of all rows is the strided
        slice ``body[f::width]`` of the varint body, tids summed from their
        gaps -- and equal to :meth:`columns` of the body that was encoded.
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
