"""repro -- subtree indexing and querying over syntactically annotated trees.

A reproduction of Chubak & Rafiei, *"Efficient Indexing and Querying over
Syntactically Annotated Trees"*, VLDB 2012.  The package provides:

* a tree data model and Penn-bracket IO (:mod:`repro.trees`);
* a deterministic synthetic treebank generator standing in for the parsed
  AQUAINT corpus (:mod:`repro.corpus`);
* a page-based storage engine with a disk B+Tree (:mod:`repro.storage`);
* the subtree index with its three posting codings -- filter-based,
  subtree-interval and the paper's root-split coding (:mod:`repro.core`,
  :mod:`repro.coding`);
* tree queries, the query language and the ``optimalCover`` / ``minRC``
  decomposition algorithms (:mod:`repro.query`);
* per-coding query executors built on structural merge joins
  (:mod:`repro.exec`);
* a caching, batching, thread-safe serving layer over an open index
  (:mod:`repro.service`);
* horizontal partitioning by tree id: parallel multiprocess shard builds
  (:mod:`repro.shard`);
* a mutable "live" index for a growing corpus: write-ahead log, in-memory
  delta segment, tombstone deletes and explicit compaction
  (:mod:`repro.live`) -- both one manifest over segment files
  (:mod:`repro.core.manifest`);
* one index type over all of them: :class:`SegmentSet`
  (:mod:`repro.core.segments`), whose ``open`` opens a plain index file as
  the set of one source, a sharded manifest as a frozen set and a live
  manifest as a :class:`LiveIndex`;
* the baselines the paper compares against (:mod:`repro.baselines`);
* the evaluation workloads and the experiment harness regenerating every
  table and figure of the paper (:mod:`repro.workloads`, :mod:`repro.bench`).

Quickstart
----------
>>> from repro import CorpusGenerator, Corpus, SubtreeIndex, QueryExecutor, parse_query
>>> corpus = Corpus(CorpusGenerator(seed=1).generate(200))
>>> index = SubtreeIndex.build(corpus, mss=3, coding="root-split", path="/tmp/demo.si")
>>> executor = QueryExecutor(index, store=corpus)
>>> result = executor.execute(parse_query("NP(DT)(NN)"))
>>> result.total_matches > 0
True
>>> from repro import QueryService, SegmentSet
>>> with QueryService(SegmentSet.of(index, corpus)) as service:
...     service.run("NP(DT)(NN)").total_matches == result.total_matches
True
"""

from repro.coding import FilterBasedCoding, RootSplitCoding, SubtreeIntervalCoding, get_coding
from repro.core import SegmentSet, SubtreeIndex
from repro.corpus import Corpus, CorpusGenerator, TreeStore
from repro.exec import QueryExecutor, QueryResult
from repro.live import LiveIndex
from repro.query import QueryTree, min_rc, optimal_cover, parse_query
from repro.service import LiveQueryService, QueryService
from repro.trees import Node, ParseTree, parse_penn, to_penn

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Trees and corpora
    "Node",
    "ParseTree",
    "parse_penn",
    "to_penn",
    "Corpus",
    "TreeStore",
    "CorpusGenerator",
    # Index and codings
    "SegmentSet",
    "SubtreeIndex",
    "get_coding",
    "FilterBasedCoding",
    "RootSplitCoding",
    "SubtreeIntervalCoding",
    # Queries and execution
    "parse_query",
    "QueryTree",
    "optimal_cover",
    "min_rc",
    "QueryExecutor",
    "QueryResult",
    "QueryService",
    # Live (mutable) indexing
    "LiveIndex",
    "LiveQueryService",
]
