"""Query workloads used by the evaluation (Section 6.1).

* :mod:`repro.workloads.wh` -- the WH query set: 48 structural queries
  derived from what/which/where/who questions, with lexical leaves removed.
* :mod:`repro.workloads.fb` -- the FB query set: subtrees extracted from
  held-out parse trees, grouped into 7 label-frequency classes
  (H, M, L, HM, HL, ML, HML) with 10 queries of sizes 1--10 per class.
* :mod:`repro.workloads.binning` -- grouping queries by their number of
  matches (the bins of Figure 11) and by query size (Figure 12).
"""

from repro.workloads.binning import MATCH_BINS, bin_for_match_count, group_by_query_size
from repro.workloads.fb import FBQuery, FBQuerySet, FREQUENCY_CLASSES, generate_fb_queries
from repro.workloads.wh import WHQuery, WH_GROUPS, generate_wh_queries

__all__ = [
    "WHQuery",
    "WH_GROUPS",
    "generate_wh_queries",
    "FBQuery",
    "FBQuerySet",
    "FREQUENCY_CLASSES",
    "generate_fb_queries",
    "MATCH_BINS",
    "bin_for_match_count",
    "group_by_query_size",
]
