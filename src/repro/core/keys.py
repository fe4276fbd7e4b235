"""Canonical encoding of subtrees as index keys.

Index keys are *unordered* subtrees (Section 4.2: postings of ``A(B)(C)`` and
``A(C)(B)`` are stored under the same key).  The canonical form used here is
the classic recursive one: a node is rendered as ``label(child1)(child2)...``
with the rendered children sorted lexicographically.  Two subtrees are equal
as unordered trees exactly when their canonical strings are equal.

Besides the canonical byte string, canonicalisation also returns the list of
original nodes in *canonical pre-order*.  That ordering is what ties a
posting's node codes back to specific key positions: every posting of a key
stores its node codes in this same order, and the query executor uses the
same mapping to know which stored code corresponds to which query node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple


class KeyFormatError(ValueError):
    """Raised when a serialised key cannot be parsed back into a subtree."""


def _canonicalize(
    node: object,
    children_of: Callable[[object], Sequence[object]],
    label_of: Callable[[object], str],
) -> Tuple[str, List[object]]:
    """Return the canonical string of *node* and its nodes in canonical pre-order."""
    child_results = [
        _canonicalize(child, children_of, label_of) for child in children_of(node)
    ]
    child_results.sort(key=lambda pair: pair[0])
    text = label_of(node) + "".join("(" + child_text + ")" for child_text, _ in child_results)
    ordered: List[object] = [node]
    for _, child_nodes in child_results:
        ordered.extend(child_nodes)
    return text, ordered


def canonical_key(
    node: object,
    children_of: Optional[Callable[[object], Sequence[object]]] = None,
    label_of: Optional[Callable[[object], str]] = None,
) -> Tuple[bytes, List[object]]:
    """Canonicalise the subtree rooted at *node*.

    Works for any tree-shaped object: by default ``node.children`` and
    ``node.label`` are used, which covers :class:`~repro.trees.node.Node`,
    the enumeration layer's occurrence nodes and query nodes alike.

    Returns ``(key_bytes, nodes_in_canonical_preorder)``.
    """
    children = children_of or (lambda item: item.children)  # type: ignore[attr-defined]
    labels = label_of or (lambda item: item.label)  # type: ignore[attr-defined]
    text, ordered = _canonicalize(node, children, labels)
    return text.encode("utf-8"), ordered


@dataclass(frozen=True)
class SubtreeKey:
    """A parsed index key: an unordered subtree in canonical form."""

    label: str
    children: Tuple["SubtreeKey", ...] = ()

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of nodes of the key subtree."""
        return 1 + sum(child.size for child in self.children)

    def labels(self) -> List[str]:
        """Labels of the key's nodes in canonical pre-order."""
        out = [self.label]
        for child in self.children:
            out.extend(child.labels())
        return out

    def encode(self) -> bytes:
        """Serialise the key to its canonical byte string."""
        text = self.label + "".join(f"({child.encode().decode('utf-8')})" for child in self.children)
        return text.encode("utf-8")

    def __str__(self) -> str:
        return self.encode().decode("utf-8")


def _parse_key(text: str, position: int) -> Tuple[SubtreeKey, int]:
    """Parse one subtree starting at *position*; returns ``(key, next_position)``."""
    end = position
    while end < len(text) and text[end] not in "()":
        end += 1
    label = text[position:end]
    if not label:
        raise KeyFormatError(f"empty label at position {position} in {text!r}")
    children: List[SubtreeKey] = []
    position = end
    while position < len(text) and text[position] == "(":
        child, position = _parse_key(text, position + 1)
        if position >= len(text) or text[position] != ")":
            raise KeyFormatError(f"missing ')' at position {position} in {text!r}")
        position += 1
        children.append(child)
    return SubtreeKey(label, tuple(children)), position


def decode_key(data: bytes | str) -> SubtreeKey:
    """Parse a canonical key byte string back into a :class:`SubtreeKey`."""
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    if not text:
        raise KeyFormatError("empty key")
    key, position = _parse_key(text, 0)
    if position != len(text):
        raise KeyFormatError(f"trailing characters at position {position} in {text!r}")
    return key
