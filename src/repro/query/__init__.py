"""Tree queries, the query language and query decomposition.

* :mod:`repro.query.model` -- the query tree data model (Definition 2):
  pre-order arrays of labelled nodes joined by ``/`` or ``//`` axes.
* :mod:`repro.query.parser` -- a compact textual query syntax.
* :mod:`repro.query.covers` -- covers, valid covers, root-split covers and
  the deep-branching-anomaly test (Definitions 5--10).
* :mod:`repro.query.decompose` -- the query compiler: one pass over the
  query's arrays, then the paper's ``optimalCover``, ``assign`` and ``minRC``
  (Section 5.2) over flat arrays, each rigid component (the query split at
  its ``//`` edges) covered on its own; every cover subtree leaves with its
  key.
"""

from repro.query.covers import Cover, CoverSubtree, has_deep_branching_anomaly, is_root_split_cover, is_valid_cover
from repro.query.decompose import compile_query, min_rc, optimal_cover
from repro.query.model import QueryNode, QueryTree, query_from_node
from repro.query.parser import QuerySyntaxError, parse_query

__all__ = [
    "QueryNode",
    "QueryTree",
    "query_from_node",
    "parse_query",
    "QuerySyntaxError",
    "Cover",
    "CoverSubtree",
    "is_valid_cover",
    "is_root_split_cover",
    "has_deep_branching_anomaly",
    "compile_query",
    "optimal_cover",
    "min_rc",
]
