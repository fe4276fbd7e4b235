"""Reading and writing Penn-Treebank style bracketed parse trees.

The corpus layer stores trees as bracketed strings, the same surface syntax
emitted by the Stanford parser and consumed by TGrep2 / CorpusSearch::

    (ROOT (S (NP (DT The) (NN agouti)) (VP (VBZ is) (NP (DT a) (NN rodent)))))

The reader is tolerant of surrounding whitespace and of an optional empty
outermost label ``( (S ...))`` as produced by some parsers.  A tree of one
node is written ``(X)``; a bare ``X`` is read as the same tree.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, List, Optional

from repro.trees.node import Node, ParseTree

_UNWRITABLE = re.compile(r"[\s()]")  # what a label must not hold to be one Penn token


class PennSyntaxError(ValueError):
    """Raised when a bracketed tree string is malformed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> Iterator[tuple[str, int]]:
    """Yield ``(token, position)`` pairs for a bracketed tree string."""
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            yield ch, i
            i += 1
            continue
        j = i
        while j < length and not text[j].isspace() and text[j] not in "()":
            j += 1
        yield text[i:j], i
        i = j


def parse_penn(text: str) -> Node:
    """Parse a single bracketed tree string into a :class:`Node` tree.

    Raises
    ------
    PennSyntaxError
        If the string is not a well-formed bracketed tree.
    """
    tokens = list(_tokenize(text))
    if not tokens:
        raise PennSyntaxError("empty input", 0)
    if len(tokens) == 1 and tokens[0][0] not in "()":
        # A bare label: how a tree of one node was written before ``to_penn``
        # gave it brackets.  Data files and logs holding one stay readable.
        return Node(tokens[0][0])

    stack: List[Node] = []
    root: Optional[Node] = None
    index = 0
    total = len(tokens)

    while index < total:
        token, pos = tokens[index]
        if token == "(":
            index += 1
            if index >= total:
                raise PennSyntaxError("unexpected end of input after '('", pos)
            label, label_pos = tokens[index]
            if label == ")":
                raise PennSyntaxError("empty constituent '()'", label_pos)
            if label == "(":
                # Anonymous wrapper such as "( (S ...))"; use a ROOT label.
                node = Node("ROOT")
                index -= 1  # re-process the '(' as the first child
            else:
                node = Node(label)
            if stack:
                stack[-1].add_child(node)
            elif root is None:
                root = node
            else:
                raise PennSyntaxError("multiple root constituents", pos)
            stack.append(node)
            index += 1
        elif token == ")":
            if not stack:
                raise PennSyntaxError("unbalanced ')'", pos)
            stack.pop()
            index += 1
        else:
            if not stack:
                raise PennSyntaxError(f"unexpected token {token!r} outside brackets", pos)
            stack[-1].add_child(Node(token))
            index += 1

    if stack:
        raise PennSyntaxError("unbalanced '(': missing closing bracket", len(text))
    if root is None:
        raise PennSyntaxError("no tree found", 0)
    return root


def parse_penn_corpus(lines: Iterable[str], start_tid: int = 0) -> Iterator[ParseTree]:
    """Parse an iterable of bracketed tree strings into :class:`ParseTree` objects.

    Blank lines and lines starting with ``#`` are skipped.  Tree identifiers
    are assigned sequentially starting at *start_tid*.
    """
    tid = start_tid
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield ParseTree(parse_penn(stripped), tid=tid)
        tid += 1


def to_penn(node: Node, pretty: bool = False, _indent: int = 0) -> str:
    """Serialize a tree back into bracketed Penn notation.

    With ``pretty=True`` the output is indented across lines, one constituent
    per line, which is convenient for eyeballing example output.  The one-line
    form, which data files and the WAL store, refuses any label ``parse_penn``
    would not read back (empty, or with whitespace or a bracket): ``ValueError``.
    """
    if not pretty:
        labels: List[str] = []
        text = _line(node, labels)
        if "" in labels or _UNWRITABLE.search("".join(labels)):
            bad = next(label for label in labels if not label or _UNWRITABLE.search(label))
            raise ValueError(f"label {bad!r} has no Penn form: it is empty or holds whitespace or a bracket")
        # A tree of one node keeps its brackets: a bare label is a token.
        return text if node.children or node.parent is not None else f"({text})"
    if node.is_leaf:
        return node.label if node.parent is not None else f"({node.label})"
    pad = "  " * _indent
    if all(child.is_leaf for child in node.children):
        inner = " ".join(child.label for child in node.children)
        return f"{pad}({node.label} {inner})"
    parts = [f"{pad}({node.label}"]
    for child in node.children:
        if child.is_leaf:
            parts.append("  " * (_indent + 1) + child.label)
        else:
            parts.append(to_penn(child, pretty=True, _indent=_indent + 1))
    parts[-1] += ")"
    return "\n".join(parts)


def _line(node: Node, labels: List[str]) -> str:
    """*node* on one line, its labels appended to *labels* in pre-order."""
    labels.append(node.label)
    if not node.children:
        return node.label
    return f"({node.label} {' '.join([_line(child, labels) for child in node.children])})"
