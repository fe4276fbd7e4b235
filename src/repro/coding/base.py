"""Common interfaces of the posting coding schemes.

The index builder extracts *occurrences* of subtrees from data trees: per
tree and index key, the ``(pre, post, level)`` codes of each occurrence's
nodes listed in the canonical order of the key (:class:`Occurrence` is the
same thing as a record, for callers that hold occurrences of several trees).
A coding scheme turns occurrences into postings, serialises posting lists
for storage in the B+Tree and deserialises them again at query time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Type

from repro.coding.postings import PostingColumns
from repro.storage.codec import decode_varint, decode_varint_run
from repro.trees.numbering import IntervalCode

#: A node's interval code as a plain ``(pre, post, level)`` triple.
Code = Tuple[int, int, int]


@dataclass(frozen=True)
class Occurrence:
    """One embedding of an index key (a unique subtree) in a data tree.

    ``codes`` holds the interval codes of the occurrence's nodes in the
    *canonical order* of the key, so ``codes[0]`` is always the subtree root
    and position *i* corresponds to the same key node across all occurrences
    of that key.
    """

    tid: int
    codes: Tuple[IntervalCode, ...]

    @property
    def root(self) -> IntervalCode:
        """Interval code of the occurrence's root node."""
        return self.codes[0]

    @property
    def size(self) -> int:
        """Number of nodes of the subtree."""
        return len(self.codes)


def decode_records(data: bytes, width: int) -> Sequence[int]:
    """The flat varint body of an encoded posting list of *width*-value records.

    Every coding stores a count followed by fixed-arity records, so field
    ``f`` of all records is the strided slice ``body[f::width]``.  A body
    that is not exactly ``count * width`` values long is corrupt.
    """
    count, offset = decode_varint(data, 0)
    body = decode_varint_run(data, offset)
    if len(body) != count * width:
        raise ValueError(
            f"corrupt posting list: {count} records of {width} values, {len(body)} values found"
        )
    return body


class CodingScheme(ABC):
    """Strategy interface for the three coding schemes of Section 4.4."""

    #: Short machine name used in file metadata and experiment reports.
    name: str = "abstract"

    # ------------------------------------------------------------------
    @abstractmethod
    def postings_from_codes(self, tid: int, occurrences: Sequence[Sequence[Code]]) -> List[object]:
        """Convert the occurrences of one key in tree *tid* into postings.

        Each occurrence lists the ``(pre, post, level)`` codes of its nodes
        in the canonical order of the key.  The returned list is deduplicated
        and sorted the way the scheme stores postings on disk; a key's list
        is the concatenation of its trees' lists in ascending ``tid``.
        """

    def postings_from_occurrences(self, occurrences: Sequence[Occurrence]) -> List[object]:
        """:meth:`postings_from_codes` over :class:`Occurrence` records of any trees."""
        by_tid: Dict[int, List[Tuple[Code, ...]]] = {}
        for occurrence in occurrences:
            by_tid.setdefault(occurrence.tid, []).append(
                tuple((code.pre, code.post, code.level) for code in occurrence.codes)
            )
        return [
            posting for tid in sorted(by_tid) for posting in self.postings_from_codes(tid, by_tid[tid])
        ]

    @abstractmethod
    def encode_postings(self, postings: Sequence[object]) -> bytes:
        """Serialise a posting list for storage."""

    @abstractmethod
    def decode_postings(self, data: bytes) -> PostingColumns:
        """Deserialise a posting list previously produced by :meth:`encode_postings`.

        The result is columnar; as a sequence it yields this scheme's posting
        records and compares equal to the list that was encoded.
        """

    # ------------------------------------------------------------------
    def posting_count(self, occurrences: Sequence[Occurrence]) -> int:
        """Number of postings this scheme stores for the given occurrences."""
        return len(self.postings_from_occurrences(occurrences))

    def tids_of(self, postings: Sequence[object]) -> List[int]:
        """Sorted unique tree identifiers present in a posting list."""
        seen: Dict[int, None] = {}
        for posting in postings:
            seen.setdefault(self._tid_of(posting))
        return sorted(seen)

    @staticmethod
    def _tid_of(posting: object) -> int:
        return posting.tid if hasattr(posting, "tid") else int(posting)  # type: ignore[arg-type]

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
