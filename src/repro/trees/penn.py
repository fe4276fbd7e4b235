"""Reading and writing Penn-Treebank style bracketed parse trees.

The corpus layer stores trees as bracketed strings, the same surface syntax
emitted by the Stanford parser and consumed by TGrep2 / CorpusSearch::

    (ROOT (S (NP (DT The) (NN agouti)) (VP (VBZ is) (NP (DT a) (NN rodent)))))

The reader is tolerant of surrounding whitespace and of an optional empty
outermost label ``( (S ...))`` as produced by some parsers.  A tree of one
node is written ``(X)``; a bare ``X`` is read as the same tree.

:func:`scan_penn` is the one reader: a single pass over the text that gives
the tree's one-line record and its numbering without building a node, which
is all an index needs of a tree; :func:`parse_penn` builds the nodes from it.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.trees.node import Node

_UNWRITABLE = re.compile(r"[\s()]")  # what a label must not hold to be one Penn token


class PennSyntaxError(ValueError):
    """Raised when a bracketed tree string is malformed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


#: A tree as flat arrays over its nodes in pre-order: their labels, their
#: ``(pre, post, level)`` codes (``pre`` is a position plus one) and, per
#: node, the positions of its children.
Numbering = Tuple[List[str], List[Tuple[int, int, int]], List[List[int]]]


def scan_penn(text: str) -> Tuple[str, Numbering]:
    """Read a bracketed tree string once, building no :class:`Node`.

    Returns the one-line record ``to_penn(parse_penn(text))`` gives -- what a
    data file and the write-ahead log store -- and the tree's
    :data:`Numbering`, what :func:`repro.core.enumeration.number` gives of
    the parsed tree.  The text is split once around its brackets; a tree of
    one node may be a bare label, and an anonymous constituent ``( (S ...))``
    is labelled ``ROOT``.

    Raises
    ------
    PennSyntaxError
        If the string is not a well-formed bracketed tree.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise PennSyntaxError("empty input", 0)
    total = len(tokens)
    if total == 1 and tokens[0] not in "()":
        # A bare label: how a tree of one node was written before ``to_penn``
        # gave it brackets.  Data files and logs holding one stay readable.
        return f"({tokens[0]})", ([tokens[0]], [(1, 1, 0)], [[]])

    labels: List[str] = []
    levels: List[int] = []
    posts: List[int] = []
    children: List[List[int]] = []
    pieces: List[str] = []  # the record, one piece per label or closing bracket
    ancestors: List[int] = []  # positions of the constituents still open
    post = 0
    index = 0
    while index < total:
        token = tokens[index]
        if token == ")":
            if not ancestors:
                raise _error("unbalanced ')'", text, tokens, index)
            position = ancestors.pop()
            post += 1
            posts[position] = post
            if children[position] or not ancestors:
                pieces.append(")")
            else:  # a constituent of one label inside a tree is written bare
                pieces[-1] = " " + labels[position]
            index += 1
            continue
        position = len(labels)
        if token == "(":
            if index + 1 == total:
                raise _error("unexpected end of input after '('", text, tokens, index)
            label = tokens[index + 1]
            if label == ")":
                raise _error("empty constituent '()'", text, tokens, index + 1)
            if ancestors:
                children[ancestors[-1]].append(position)
            elif labels:
                raise _error("multiple root constituents", text, tokens, index)
            if label == "(":  # an anonymous wrapper: its '(' opens the first child
                label = "ROOT"
                index += 1
            else:
                index += 2
            pieces.append(" (" + label if ancestors else "(" + label)
            levels.append(len(ancestors))
            posts.append(0)
            ancestors.append(position)
        else:
            if not ancestors:
                raise _error(f"unexpected token {token!r} outside brackets", text, tokens, index)
            label = token
            children[ancestors[-1]].append(position)
            pieces.append(" " + label)
            levels.append(len(ancestors))
            post += 1
            posts.append(post)
            index += 1
        labels.append(label)
        children.append([])

    if ancestors:
        raise PennSyntaxError("unbalanced '(': missing closing bracket", len(text))
    return "".join(pieces), (labels, list(zip(range(1, len(labels) + 1), posts, levels)), children)


def _error(message: str, text: str, tokens: List[str], index: int) -> PennSyntaxError:
    """*message* at the character where ``tokens[index]`` starts in *text*."""
    end = 0
    for token in tokens[:index + 1]:
        end = text.index(token, end) + len(token)
    return PennSyntaxError(message, end - len(tokens[index]))


def parse_penn(text: str) -> Node:
    """Parse a single bracketed tree string into a :class:`Node` tree.

    The nodes are built from :func:`scan_penn`'s numbering.

    Raises
    ------
    PennSyntaxError
        If the string is not a well-formed bracketed tree.
    """
    _, (labels, _, children) = scan_penn(text)
    nodes = [Node(label) for label in labels]
    for node, below in zip(nodes, children):
        if below:
            node.children = [nodes[position] for position in below]
            for child in node.children:
                child.parent = node
    return nodes[0]


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
