"""A compact textual syntax for tree queries.

Two forms are supported and can be mixed freely:

Bracketed tree form
    ``S(NP(NNS(agouti)))(//VP)`` -- a node label followed by parenthesised
    children.  A child whose text starts with ``//`` is attached with the
    ancestor-descendant axis, otherwise with the parent-child axis.

Linear path form
    ``S/NP//NN`` -- a chain of labels separated by ``/`` (child) or ``//``
    (descendant), equivalent to ``S(NP(//NN))``.  Paths may appear inside
    brackets as well, e.g. ``VP(VBZ/is)(NP//NN)``.

The grammar in EBNF::

    query   := step
    step    := label chain* child*
    chain   := ("/" | "//") label chain* child*
    child   := "(" ["//" | "/"] step ")"
    label   := any run of characters except "(", ")" and "/"

Whitespace around tokens is ignored.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.query.model import QueryTree
from repro.trees.matching import AXIS_CHILD


class QuerySyntaxError(ValueError):
    """Raised when a query string cannot be parsed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


#: The separators: a bracket, an axis or a whitespace run.  ``split`` keeps
#: them, so the pieces alternate label, separator, label, ... -- a label may
#: be empty -- and each piece starts where the ones before it end.
_SEPARATOR = re.compile(r"([()]|//?|\s+)")


def parse_query(text: str) -> QueryTree:
    """Parse a query string into a :class:`~repro.query.model.QueryTree`.

    One pass over the pieces of one split fills the pre-order arrays: a
    label that follows ``(`` or an axis is a new child of the current node
    and becomes the current node; ``(`` also remembers the node it hangs
    off, and ``)`` returns to it.  A one-key query leaves with its key.
    """
    label_of: List[str] = []
    parent_of: List[int] = []
    axis_of: List[Optional[str]] = []
    owners: List[int] = []  # the nodes whose "(" is still open
    current = -1
    opened = False  # a "(" waits for its label
    axis = None  # an axis waits for its label
    at = 0
    for index, piece in enumerate(_SEPARATOR.split(text)):
        if not piece:
            continue
        if index % 2 == 0:  # a label
            if current < 0:
                axis_of.append(None)
            elif opened or axis:
                if opened:
                    owners.append(current)
                axis_of.append(axis or AXIS_CHILD)
                opened, axis = False, None
            elif owners:
                raise QuerySyntaxError("missing ')'", at)
            else:
                raise QuerySyntaxError(f"unexpected trailing text {text[at:]!r}", at)
            parent_of.append(current)
            current = len(label_of)
            label_of.append(piece)
        elif piece.isspace():
            pass
        elif current < 0 or axis or opened and piece[0] != "/":  # a label is due
            raise QuerySyntaxError("expected a node label", at)
        elif piece == "(":
            opened = True
        elif piece == ")":
            if not owners:
                raise QuerySyntaxError(f"unexpected trailing text {text[at:]!r}", at)
            current = owners.pop()
        else:
            axis = piece
        at += len(piece)
    if current < 0:
        raise QuerySyntaxError("empty query", 0)
    if opened or axis:
        raise QuerySyntaxError("expected a node label", at)
    if owners:
        raise QuerySyntaxError("missing ')'", at)
    return QueryTree.of_arrays(label_of, parent_of, axis_of)
