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
from typing import List

from repro.query.model import QueryNode, QueryTree
from repro.trees.matching import AXIS_CHILD


class QuerySyntaxError(ValueError):
    """Raised when a query string cannot be parsed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


#: One token with the whitespace before it: ``)``, or an optional ``(``, an
#: optional axis and a label.  The label may be empty, so the pattern matches
#: at every position of every text and consecutive matches tile the input;
#: an empty label after ``(`` or an axis is the "expected a node label" error.
_TOKEN = re.compile(r"\s*(?:(\))|(\()?\s*(//?)?\s*([^()/\s]*))")


def parse_query(text: str) -> QueryTree:
    """Parse a query string into a :class:`~repro.query.model.QueryTree`.

    One pass over the tokens: a label that follows ``(`` or an axis is a new
    child of the current node and becomes the current node; ``(`` also
    remembers the node it hangs off, and ``)`` returns to it.  Nodes are
    created in pre-order.
    """
    nodes: List[QueryNode] = []
    owners: List[QueryNode] = []  # the nodes whose "(" is still open
    current = None
    for token in _TOKEN.finditer(text):
        close, opened, axis, label = token.groups()
        if current is None:
            if close or opened or axis:
                raise QuerySyntaxError("expected a node label", token.start(1 if close else 2 if opened else 3))
            if not label:
                raise QuerySyntaxError("empty query", 0)
            current = QueryNode(label)
            nodes.append(current)
        elif close:
            if not owners:
                at = token.start(1)
                raise QuerySyntaxError(f"unexpected trailing text {text[at:]!r}", at)
            current = owners.pop()
        elif opened or axis:
            if not label:
                raise QuerySyntaxError("expected a node label", token.end())
            if opened:
                owners.append(current)
            current = current.add_child(QueryNode(label), axis or AXIS_CHILD)
            nodes.append(current)
        elif label:
            at = token.start(4)
            if owners:
                raise QuerySyntaxError("missing ')'", at)
            raise QuerySyntaxError(f"unexpected trailing text {text[at:]!r}", at)
        elif owners:  # the end of the text
            raise QuerySyntaxError("missing ')'", len(text))
    return QueryTree(nodes[0], nodes)
