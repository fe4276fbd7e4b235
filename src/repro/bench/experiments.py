"""Measure functions, one per table and figure of the paper's Section 6.

Each function measures **one cell** of its experiment and carries the
experiment's whole declaration in its :func:`~repro.bench.registry.experiment`
decorator: title, description, independent variables with their levels, value
columns and the direction of each, notes.  The orchestrator
(:class:`~repro.bench.runner.ExperimentRunner`) crosses the variables and
calls the function with one level of each as keywords, next to an
:class:`~repro.bench.context.ExperimentContext`; the function returns that
row's values, or yields several rows when it reports a variable itself.  Its
keyword defaults are the experiment's fixed parameters.  The default levels
are laptop sized; ``docs/benchmarks.md`` records how the committed numbers
compare to the paper's trends.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.bench.context import ExperimentContext
from repro.bench.registry import REPORTED, STEADY_STATE, TIMING, experiment
from repro.core.enumeration import subtree_count_by_root_branching
from repro.core.segments import SegmentSet
from repro.core.stats import count_postings, count_unique_keys
from repro.corpus.generator import CorpusGenerator
from repro.exec.executor import QueryExecutor
from repro.live import LiveIndex
from repro.query.decompose import min_rc, optimal_cover
from repro.query.model import QueryTree
from repro.serve.loadgen import LoadgenReport, profile_mix, run_load, run_open_loop
from repro.serve.server import ServerThread, result_to_dict
from repro.service.service import QueryService
from repro.workloads.binning import MATCH_BINS, average, bin_for_match_count, group_by_query_size
from repro.workloads.wh import WH_GROUPS, wh_queries_by_group

#: The three coding schemes in the paper's display order.
CODINGS = ("filter", "root-split", "subtree-interval")

#: The ``mss`` sweep of the index-characterisation figures.
MSS_VALUES = (1, 2, 3, 4, 5)

#: Corpus sizes of Figures 8-10 and Table 1.
INDEX_SIZES = (100, 400, 1_200)

Row = Tuple[object, ...]


# ----------------------------------------------------------------------
# Figure 2: number of unique subtrees (index keys) vs corpus size
# ----------------------------------------------------------------------
@experiment(
    title="Figure 2",
    description="Number of index keys (unique subtrees) as a function of the input size",
    variables={"sentences": (1, 10, 100, 1_000), "mss": REPORTED},
    values={"unique_subtrees": "exact"},
    notes=("paper: near-linear growth with corpus size, parallel curves per mss",),
)
def figure2_index_keys(
    context: ExperimentContext, sentences: int, mss_values: Sequence[int] = MSS_VALUES
) -> Iterator[Row]:
    """Count unique subtrees per ``mss`` (one pass serves every ``mss``)."""
    keys = count_unique_keys(context.corpus(sentences), list(mss_values))
    for mss in mss_values:
        yield mss, keys[mss]


# ----------------------------------------------------------------------
# Figure 3: subtrees per node vs branching factor
# ----------------------------------------------------------------------
@experiment(
    title="Figure 3",
    description="Average number of subtrees per node in terms of the branching factor of the root",
    variables={"branching_factor": REPORTED, "subtree_size": REPORTED},
    values={"avg_subtrees": "exact"},
    notes=("paper: counts grow sharply with the branching factor, faster for larger sizes",),
)
def figure3_branching(
    context: ExperimentContext, sentences: int = 1_000, sizes: Sequence[int] = (2, 3, 4, 5)
) -> Iterator[Row]:
    """Average number of extracted subtrees per node by root branching factor."""
    averages = subtree_count_by_root_branching(context.corpus(sentences), sizes=tuple(sizes))
    for branching, per_size in sorted(averages.items()):
        for size in sizes:
            yield branching, size, per_size.get(size, 0.0)


# ----------------------------------------------------------------------
# Figures 8-10 and Table 1: index size, posting counts, construction time
# ----------------------------------------------------------------------
@experiment(
    title="Figure 8",
    description="Subtree index size (bytes) for the three codings",
    variables={"sentences": INDEX_SIZES, "coding": CODINGS, "mss": MSS_VALUES},
    values={"size_bytes": "lower", "build_seconds": "timing:lower"},
    notes=("paper: filter-based < root-split << subtree interval; gap widens with mss",),
)
def figure8_index_size(context: ExperimentContext, sentences: int, coding: str, mss: int) -> Row:
    """Index size in bytes per coding scheme, corpus size and ``mss``."""
    index = context.subtree_index(sentences, coding, mss)
    return index.size_bytes(), index.metadata.build_seconds


@experiment(
    title="Table 1",
    description=(
        "Ratio of the subtree index size when mss is {mss_range[1]} "
        "to the index size when mss is {mss_range[0]}"
    ),
    variables={"sentences": INDEX_SIZES, "coding": CODINGS},
    values={"ratio": "lower"},
    notes=(
        "paper: root-split shows the smallest growth ratio (12-15x), "
        "subtree interval the largest (~50x)",
    ),
)
def table1_size_ratio(
    context: ExperimentContext, sentences: int, coding: str, mss_range: Tuple[int, int] = (1, 5)
) -> float:
    """How much the index grows from the smallest ``mss`` to the largest (Table 1)."""
    small, large = (context.subtree_index(sentences, coding, mss).size_bytes() for mss in mss_range)
    return large / small


@experiment(
    title="Figure 9",
    description="Total number of postings for the three codings",
    variables={"sentences": INDEX_SIZES, "coding": REPORTED, "mss": MSS_VALUES},
    values={"postings": "exact"},
    notes=("paper: equal for mss=1 (root-split vs subtree interval); gap widens with mss",),
)
def figure9_postings(
    context: ExperimentContext, sentences: int, mss: int, codings: Sequence[str] = CODINGS
) -> Iterator[Row]:
    """Total number of postings per coding scheme (one enumeration serves all three)."""
    totals = count_postings(context.corpus(sentences), mss, list(codings))
    for coding in codings:
        yield coding, totals[coding]


@experiment(
    title="Figure 10",
    description="Index construction time (seconds) for the three codings",
    variables={"sentences": INDEX_SIZES, "coding": CODINGS, "mss": MSS_VALUES},
    values={"build_seconds": "timing:lower"},
    notes=("paper: filter-based ~ root-split < subtree interval; gap widens with mss",),
)
def figure10_build_time(context: ExperimentContext, sentences: int, coding: str, mss: int) -> float:
    """Index construction time per coding scheme, corpus size and ``mss``."""
    return context.subtree_index(sentences, coding, mss).metadata.build_seconds


# ----------------------------------------------------------------------
# Figures 11-12: query runtime by number of matches and by query size
# ----------------------------------------------------------------------
def _timed(execute: Callable[[object], object], queries: Sequence[object]) -> Tuple[List[float], list]:
    """Run each query once through *execute*: seconds and outcome per query, in order.

    The one timed loop of every experiment: a pass over a workload is the
    sum of the seconds, ``queries * n`` makes *n* passes in workload order.
    """
    seconds: List[float] = []
    outcomes = []
    for query in queries:
        started = time.perf_counter()
        outcome = execute(query)
        seconds.append(time.perf_counter() - started)
        outcomes.append(outcome)
    return seconds, outcomes


def _workload_queries(context: ExperimentContext, sentences: int) -> List[QueryTree]:
    """The combined WH + FB workload of Section 6.3.1."""
    queries = [item.query for item in context.wh_queries()]
    queries.extend(item.query for item in context.fb_queries(sentences))
    return queries


@experiment(
    title="Figure 11",
    description="Average runtime of queries in terms of the number of matches",
    variables={"coding": CODINGS, "mss": (1, 2, 3), "match_bin": REPORTED},
    values={"queries": "exact", "avg_seconds": "timing:lower"},
    notes=("paper: runtimes fall as mss grows; root-split fastest for mss >= 2",),
    warmup=STEADY_STATE,
)
def figure11_runtime_by_matches(
    context: ExperimentContext, coding: str, mss: int, sentences: int = 1_200
) -> Iterator[Row]:
    """Average query runtime per match-count bin (Figure 11)."""
    queries = _workload_queries(context, sentences)
    seconds, outcomes = _timed(context.executor(sentences, coding, mss).execute, queries)
    binned: Dict[str, List[float]] = {label: [] for label, _, _ in MATCH_BINS}
    for elapsed, outcome in zip(seconds, outcomes):
        binned[bin_for_match_count(outcome.total_matches)].append(elapsed)
    for label, times in binned.items():
        if times:
            yield label, len(times), average(times)


@experiment(
    title="Figure 12",
    description="Average runtime of queries in terms of the size of queries",
    variables={"coding": CODINGS, "mss": (1, 2, 3), "query_size": REPORTED},
    values={"queries": "exact", "avg_seconds": "timing:lower"},
    notes=(
        "queries with fewer than {min_matches} matches are excluded "
        "(the paper uses 100 at its much larger corpus scale)",
    ),
    warmup=STEADY_STATE,
)
def figure12_runtime_by_size(
    context: ExperimentContext, coding: str, mss: int, sentences: int = 1_200, min_matches: int = 10
) -> Iterator[Row]:
    """Average query runtime by query size for queries with enough matches (Figure 12)."""
    queries = _workload_queries(context, sentences)
    seconds, outcomes = _timed(context.executor(sentences, coding, mss).execute, queries)
    entries = [
        (query.size(), outcome.total_matches, elapsed)
        for query, outcome, elapsed in zip(queries, outcomes, seconds)
    ]
    for size, times in group_by_query_size(entries, min_matches=min_matches).items():
        yield size, len(times), average(times)


# ----------------------------------------------------------------------
# Table 2: comparison with ATreeGrep and the frequency-based approach
# ----------------------------------------------------------------------
@experiment(
    title="Table 2",
    description=(
        "Average runtime (seconds) of FB query classes: subtree index with root-split "
        "coding (mss={mss}) vs ATreeGrep and frequency-based approaches"
    ),
    variables={"class": REPORTED, "system": REPORTED},
    values={"avg_seconds": "timing:lower"},
    notes=("paper: root-split is at least an order of magnitude faster across all classes",),
    warmup=STEADY_STATE,
)
def table2_system_comparison(
    context: ExperimentContext,
    sentences: int = 2_400,
    mss: int = 3,
    cutoffs: Sequence[float] = (0.001, 0.01, 0.10),
) -> Iterator[Row]:
    """Average FB-query runtime per frequency class for SI root-split vs baselines."""
    fb = context.fb_queries(sentences)
    systems: List[Tuple[str, object]] = [
        ("RS", context.executor(sentences, "root-split", mss)),
        ("ATG", context.atreegrep(sentences)),
    ]
    systems.extend(
        (f"FB({cutoff:g})", context.frequency_based(sentences, cutoff, mss)) for cutoff in cutoffs
    )
    for frequency_class in fb.classes():
        class_queries = [item.query for item in fb.by_class(frequency_class)]
        for system_name, system in systems:
            seconds, _ = _timed(system.execute, class_queries)  # type: ignore[attr-defined]
            yield frequency_class, system_name, average(seconds)


# ----------------------------------------------------------------------
# Figure 13: scalability with the corpus size
# ----------------------------------------------------------------------
@experiment(
    title="Figure 13",
    description="Average runtime of queries (mss={mss}) over growing corpus sizes",
    variables={"sentences": (300, 600, 1_200, 2_400), "coding": CODINGS},
    values={"avg_seconds": "timing:lower"},
    notes=("paper: near-linear growth; root-split has the smallest growth factor",),
    warmup=STEADY_STATE,
)
def figure13_scalability(
    context: ExperimentContext,
    sentences: int,
    coding: str,
    levels: Mapping[str, Sequence[int]],
    mss: int = 3,
) -> float:
    """Average FB-query runtime as the corpus grows (Figure 13; paper uses 1k..1M).

    The same FB query set -- the smallest corpus's -- is evaluated at every
    corpus size, as in the paper.
    """
    queries = [item.query for item in context.fb_queries(levels["sentences"][0])]
    seconds, _ = _timed(context.executor(sentences, coding, mss).execute, queries)
    return average(seconds)


# ----------------------------------------------------------------------
# Table 3: number of joins per decomposition algorithm
# ----------------------------------------------------------------------
@experiment(
    title="Table 3",
    description=(
        "Average number of joins required over queries in the WH query set: "
        "r = root-split (minRC), s = subtree interval (optimalCover)"
    ),
    variables={"group": WH_GROUPS, "mss": (2, 3, 4, 5)},
    values={"joins_root_split": "exact", "joins_subtree_interval": "exact"},
    notes=("paper: optimalCover needs fewer joins; both decrease as mss grows",),
)
def table3_join_counts(context: ExperimentContext, group: str, mss: int) -> Row:
    """Average number of joins per WH query group for minRC vs optimalCover (Table 3)."""
    queries = [item.query for item in wh_queries_by_group()[group]]
    return (
        average([float(len(min_rc(query, mss)) - 1) for query in queries]),
        average([float(len(optimal_cover(query, mss)) - 1) for query in queries]),
    )


# ----------------------------------------------------------------------
# Sharding experiment: parallel build speedup and merged-read query latency
# ----------------------------------------------------------------------
@experiment(
    title="Shard scalability",
    description=(
        "Parallel build time and merged-read query latency of the sharded index "
        "({coding}, mss={mss}, {sentences} sentences, WH workload)"
    ),
    variables={"shards": (1, 2, 4, 8)},
    values={
        "workers": None,
        "build_seconds": TIMING,
        "build_speedup": TIMING,
        "cold_ms_per_query": "timing:lower",
        "warm_ms_per_query": "timing:lower",
        "total_matches": "exact",
    },
    notes=(
        "build_speedup is relative to the {shards[0]}-shard build; "
        "parallel gains require as many free cores as workers",
        "cold is the fastest of {cold_passes} passes, each through a fresh service "
        "(empty plan, posting and result caches; join kernels already compiled)",
        "warm passes repeat the workload through the populated service caches "
        "(plans, merged postings and results)",
    ),
    warmup=STEADY_STATE,  # the rows are compared; the first must not pay the kernels
)
def shard_scalability(
    context: ExperimentContext,
    shards: int,
    levels: Mapping[str, Sequence[int]],
    sentences: int = 1_200,
    mss: int = 3,
    coding: str = "root-split",
    partitioner: str = "hash",
    cold_passes: int = 5,
    warm_passes: int = 2,
) -> Row:
    """Build time and query latency of the WH workload at 1/2/4/8 shards.

    The corpus is partitioned into *shards*, built with as many worker
    processes (one per shard) and served through a fresh
    :class:`QueryService`:

    * **build_seconds** -- wall time of the whole sharded build (partition,
      N parallel ``SubtreeIndex`` + ``TreeStore`` builds, manifest write);
    * **build_speedup** -- the baseline build time divided by this row's
      (> 1 means the parallel build won; bounded by the core count).  The
      baseline is the first shard count of the sweep: one shard, one worker,
      no pool -- the same work the unsharded builder does;
    * **cold/warm_ms_per_query** -- latency of the WH workload (one join
      over the posting lists merged across shards) with empty caches -- the
      fastest of *cold_passes* passes, each through a fresh service: one
      pass is ~30 ms of wall clock, too little to compare rows by -- and
      after *warm_passes* repetitions.  "Cold" is the service's caches; the
      declared warm-up run leaves the join kernels compiled and the
      B+Tree pages resident for every row alike;
    * **total_matches** -- summed over the workload; identical across rows
      by the merge-correctness invariant, and asserted on by the benchmark.
    """
    queries = [item.query for item in context.wh_queries()]

    def built(count: int):
        return context.sharded_index(
            sentences, coding, mss, count, workers=count, partitioner=partitioner
        )

    sharded = built(shards)
    build_seconds = sharded.manifest.build_seconds
    base_build_seconds = built(levels["shards"][0]).manifest.build_seconds
    sharded.reset_probe_stats()
    cold_seconds = float("inf")
    for _ in range(cold_passes):
        service = QueryService(sharded)  # a fresh service: fresh caches
        seconds, outcomes = _timed(service.run, queries)
        cold_seconds = min(cold_seconds, sum(seconds))
    with service:
        warm_seconds = sum(_timed(service.run, queries * warm_passes)[0]) / warm_passes
    return (
        shards,
        build_seconds,
        base_build_seconds / build_seconds if build_seconds else float("inf"),
        cold_seconds * 1000 / len(queries),
        warm_seconds * 1000 / len(queries),
        sum(outcome.total_matches for outcome in outcomes),
    )


# ----------------------------------------------------------------------
# Live-index experiment: update throughput, delta-fraction latency, compaction
# ----------------------------------------------------------------------
@experiment(
    title="Update throughput",
    description=(
        "Live-index mutation cost: fsynced adds/sec, WH query latency at "
        "0/10/50% delta fraction, and compaction time ({coding}, mss={mss}, "
        "{sentences}-sentence base corpus)"
    ),
    variables={"delta_fraction": (0.0, 0.10, 0.50)},
    values={
        "base_trees": None,
        "delta_trees": None,
        "adds_per_sec": TIMING,
        "query_ms_delta": TIMING,
        "compact_seconds": TIMING,
        "query_ms_compacted": TIMING,
        "total_matches": "exact",
        "total_matches_compacted": "exact",
    },
    notes=(
        "adds are acknowledged only after an fsynced WAL append; delta queries "
        "merge the in-memory memtable with the base segment at lookup time",
        "total_matches == total_matches_compacted is the equivalence invariant",
    ),
)
def update_throughput(
    context: ExperimentContext,
    delta_fraction: float,
    sentences: int = 600,
    mss: int = 3,
    coding: str = "root-split",
) -> Row:
    """Mutation cost of the live index at one delta fraction.

    A live index is created over the base corpus and ``delta_fraction *
    sentences`` extra trees are appended through the WAL'd ``add_tree``
    path.  The row records:

    * **adds_per_sec** -- acknowledged (fsynced) adds per second;
    * **query_ms_delta** -- WH-workload latency served *with* the delta in
      place (base segment merged with the memtable at query time);
    * **compact_seconds** -- cost of folding the delta into an immutable
      segment (build + atomic manifest swap + WAL truncation);
    * **query_ms_compacted** -- the same workload once fully on-disk;
    * **total_matches / total_matches_compacted** -- summed over the
      workload before and after compaction; identical by the equivalence
      invariant, which ``benchmarks/test_update_throughput.py`` asserts.
    """
    queries = [item.query for item in context.wh_queries()]
    base = list(context.corpus(sentences))

    def run_workload(live: LiveIndex) -> Tuple[float, int]:
        """Cold ms/query and summed matches through a fresh QueryService."""
        with QueryService(live) as service:
            seconds, outcomes = _timed(service.run, queries)
        return sum(seconds) * 1000 / len(queries), sum(o.total_matches for o in outcomes)

    delta_count = int(round(sentences * delta_fraction))
    extra = CorpusGenerator(seed=context.seed + 104729).generate_list(delta_count)
    path = os.path.join(
        context.workdir, f"live-{sentences}-{coding}-{mss}-f{int(delta_fraction * 100)}"
    )
    live = LiveIndex.create(path, mss=mss, coding=coding, trees=base)
    try:
        add_seconds = sum(_timed(live.add_tree, [tree.root for tree in extra])[0])
        delta_ms, total = run_workload(live)
        compact_seconds = live.compact().seconds if delta_count else 0.0
        compacted_ms, total_compacted = run_workload(live)
    finally:
        live.close()
    return (
        len(base),
        delta_count,
        delta_count / add_seconds if add_seconds and delta_count else 0.0,
        delta_ms,
        compact_seconds,
        compacted_ms,
        total,
        total_compacted,
    )


# ----------------------------------------------------------------------
# Serving experiment: cold vs warm-cache latency through the QueryService
# ----------------------------------------------------------------------
@experiment(
    title="Serve",
    description="Cold vs warm-cache vs hot-cache latency of repeated queries through QueryService",
    variables={"coding": ("root-split", "subtree-interval")},
    values={
        "queries": None,
        "cold_ms_per_query": "timing:lower",
        "warm_ms_per_query": "timing:lower",
        "hot_ms_per_query": TIMING,
        "warm_speedup": TIMING,
        "hot_speedup": TIMING,
        "postings_hit_rate": None,
        "tree_descents": None,
    },
    notes=(
        "warm reuses cached plans and decoded postings (joins still run); "
        "hot answers identical repeats from the result cache",
    ),
    warmup=STEADY_STATE,  # "cold" is cold caches, not a cold join-kernel table
)
def serve_cold_warm(
    context: ExperimentContext, coding: str, sentences: int = 1_200, mss: int = 3, warm_passes: int = 3
) -> Row:
    """Cold vs warm vs hot latency of the WH workload served repeatedly.

    The coding's index is wrapped in a fresh :class:`QueryService` and the
    WH query set is evaluated at three cache temperatures:

    * **cold** -- empty caches: parse + decompose + fetch + join per query;
    * **warm** -- plan and posting caches populated (result cache disabled):
      joins still run, but parsing, decomposition, B+Tree descents and
      posting decoding are all served from memory;
    * **hot** -- the result cache answers identical repeats outright.

    This is the serving-layer counterpart of Figures 11/12: the same joins,
    with progressively more of the pipeline amortised across repetitions.
    """
    queries = [item.query for item in context.wh_queries()]
    # The context owns the files and shares them across experiments: the set
    # is never closed, and leaving a service's block only drops its caches.
    index = SegmentSet.of(context.subtree_index(sentences, coding, mss), context.tree_store(sentences))
    index.reset_probe_stats()
    with QueryService(index, result_cache_size=0) as service:
        cold_seconds = sum(_timed(service.run, queries)[0])
        warm_seconds = sum(_timed(service.run, queries * warm_passes)[0]) / warm_passes
        warm_stats = service.stats()
    with QueryService(index) as hot_service:
        _timed(hot_service.run, queries)  # populate every cache, result cache included
        hot_seconds = sum(_timed(hot_service.run, queries * warm_passes)[0]) / warm_passes
    return (
        len(queries),
        cold_seconds * 1000 / len(queries),
        warm_seconds * 1000 / len(queries),
        hot_seconds * 1000 / len(queries),
        cold_seconds / warm_seconds if warm_seconds else float("inf"),
        cold_seconds / hot_seconds if hot_seconds else float("inf"),
        warm_stats.postings.hit_rate,
        warm_stats.probes.tree_descents,
    )


# ----------------------------------------------------------------------
# Serving over HTTP: what the three load experiments share
# ----------------------------------------------------------------------
def _ground_truth(service: QueryService, texts: Sequence[str]) -> Dict[str, Dict[str, object]]:
    """What a server over *service* must answer: every query's result as it
    looks after one encode/decode hop (float repr etc.)."""
    return {
        text: json.loads(json.dumps(result_to_dict(service.run(text))))
        for text in dict.fromkeys(texts)
    }


def _service_under_load(
    context: ExperimentContext,
    sentences: int,
    coding: str,
    mss: int,
    index: Optional[str],
    **cache_options: object,
) -> Tuple[QueryService, List[str]]:
    """The service to put behind the server, and its corpus's FB queries.

    The context's index over *sentences* -- or, for ``repro loadtest``, the
    index file *index* names, whose corpus the context cannot draw FB
    queries from.  Either way the service is closed by its ``with`` block:
    that drops its caches, and closes only files it opened.
    """
    if index is not None:
        return QueryService.open(index, **cache_options), []
    index = SegmentSet.of(context.subtree_index(sentences, coding, mss), context.tree_store(sentences))
    service = QueryService(index, **cache_options)  # type: ignore[arg-type]
    return service, [item.text for item in context.fb_queries(sentences)]


@contextmanager
def _serving(
    service: QueryService, texts: Sequence[str], url: Optional[str], **server_options: object
) -> Iterator[Tuple[str, Dict[str, Dict[str, object]]]]:
    """Warm *service* on *texts*, snapshot the ground truth, then serve it.

    Yields ``(base URL, ground truth)``; the load generators verify every
    response against the snapshot.  *url* names a server someone else
    started over the same index: then nothing is served here.
    """
    service.run_many(texts)
    expected = _ground_truth(service, texts)
    if url is not None:
        yield url, expected
        return
    with ServerThread(service, **server_options) as thread:
        yield thread.url, expected


def _closed_loop_row(
    report: LoadgenReport,
    *extra: object,
    also: Optional[LoadgenReport] = None,
    quantiles: Sequence[str] = ("p50", "p95", "p99"),
) -> Row:
    """A closed-loop report as row values: duration, requests, errors,
    mismatches, qps, *extra*, then the latency percentiles in ms.

    *also* is a second pass over the same load whose errors and mismatches
    land in the same exact-gated cells.
    """
    latency = report.percentiles_ms()
    return (
        report.duration_seconds,
        report.requests,
        report.errors + (also.errors if also else 0),
        report.mismatches + (also.mismatches if also else 0),
        report.qps,
        *extra,
        *(latency[quantile] or 0.0 for quantile in quantiles),
    )


#: Columns of the traced pass, which ``repro loadtest`` leaves out: tracing
#: cannot be toggled in a server reached over ``--url``.
TRACED_COLUMNS = {"qps_traced": TIMING, "trace_overhead_pct": TIMING}


# ----------------------------------------------------------------------
# Serve HTTP: closed-loop throughput/latency through the asyncio server
# ----------------------------------------------------------------------
@experiment(
    title="Serve HTTP throughput",
    description=(
        "Closed-loop throughput and latency of the asyncio HTTP server "
        "over the {coding} index (mss={mss})"
    ),
    variables={"concurrency": (1, 2, 4)},
    values={
        "duration_seconds": TIMING,
        "requests": TIMING,
        "errors": "exact",
        "mismatches": "exact",
        "qps": TIMING,
        **TRACED_COLUMNS,
        "p50_ms": TIMING,
        "p95_ms": TIMING,
        "p99_ms": TIMING,
    },
    notes=(
        "closed loop: each client issues its next query only after the previous "
        "response; mismatches counts responses that differ from QueryService.run "
        "(untraced and traced passes summed); qps_traced repeats the run with "
        "request tracing enabled",
    ),
)
def serve_http_throughput(
    context: ExperimentContext,
    concurrency: int,
    sentences: int = 600,
    mss: int = 3,
    coding: str = "root-split",
    duration_seconds: float = 1.0,
    traced: bool = True,
    index: Optional[str] = None,
    url: Optional[str] = None,
) -> Row:
    """Throughput vs latency of the HTTP serving layer under a closed loop.

    The WH + FB query mix is driven through :mod:`repro.serve`'s asyncio
    server by the closed-loop load generator at one concurrency level.
    Every response payload is checked against the in-process
    ``QueryService.run`` ground truth (the ``mismatches`` column must stay
    zero: the HTTP hop adds latency, never different answers), so the
    experiment is simultaneously the serving-layer equivalence test and its
    performance profile.  *index* / *url* aim it at a user's index file and
    an already running server (``repro loadtest``).
    """
    service, fb_texts = _service_under_load(context, sentences, coding, mss, index)
    texts = [item.text for item in context.wh_queries()] + fb_texts
    with service, _serving(service, texts, url) as (target, expected):
        report = run_load(
            target, texts, concurrency=concurrency, duration=duration_seconds, expected=expected
        )
        if not traced:
            return _closed_loop_row(report)
        # Same load with request tracing on, to price the observable path.
        # The server checks the global flag per request, so no restart is
        # needed; errors/mismatches from both passes land in the same
        # exact-gated columns.
        owned_tracer = not obs.enabled()
        if owned_tracer:
            obs.enable(obs.Tracer(capacity=256))
        try:
            again = run_load(
                target, texts, concurrency=concurrency, duration=duration_seconds, expected=expected
            )
        finally:
            if owned_tracer:
                obs.disable()
    overhead_pct = (report.qps - again.qps) / report.qps * 100.0 if report.qps else 0.0
    return _closed_loop_row(report, again.qps, round(overhead_pct, 2), also=again)


# ----------------------------------------------------------------------
# Serve overload: open-loop fixed-rate arrivals vs the bounded queue
# ----------------------------------------------------------------------
@experiment(
    title="Serve overload",
    description=(
        "Open-loop fixed-rate load below/above capacity against the "
        "bounded-queue HTTP server ({coding}, mss={mss}, "
        "max_queue={max_queue}, {arrivals} arrivals)"
    ),
    variables={"load": REPORTED},
    values={
        "rate_qps": TIMING,
        "duration_seconds": TIMING,
        "offered": TIMING,
        "accepted": TIMING,
        "shed": TIMING,
        "errors": "exact",
        "mismatches": "exact",
        "overflowed": TIMING,
        "p50_ms": TIMING,
        "p99_ms": TIMING,
    },
    notes=(
        "open loop: {arrivals} arrivals at a fixed rate regardless of response "
        "times, so overload latency is measured honestly; 'shed' counts 503 "
        "load-shedding responses (bounded executor queue), which are not errors",
        "capacity is measured in-situ by a short closed-loop calibration burst; "
        "'below'/'above' rates are fixed multiples of it",
        "the service runs without a result cache, so every request executes on "
        "the pool; tables from before PR 16 served warm result-cache hits "
        "through the pool and are not comparable with these rows",
    ),
)
def serve_overload(
    context: ExperimentContext,
    sentences: int = 600,
    mss: int = 3,
    coding: str = "root-split",
    duration_seconds: float = 1.5,
    rates: Sequence[Tuple[str, float]] = (("below", 0.5), ("above", 3.0)),
    capacity: Optional[float] = None,
    calibration_seconds: float = 0.75,
    arrivals: str = "poisson",
    max_queue: int = 16,
    max_workers: int = 2,
    max_clients: int = 128,
    profile: str = "fb_heavy",
    index: Optional[str] = None,
    url: Optional[str] = None,
) -> Iterator[Row]:
    """Latency and shedding under *open-loop* load below and above capacity.

    The closed-loop experiment (``serve_http_throughput``) lets clients
    slow down with the server, which hides queueing delay under overload
    (coordinated omission).  Here the FB-heavy query mix is offered at a
    *fixed* arrival rate -- first well below, then well above the server's
    measured capacity -- against a server configured with a small bounded
    executor queue.  Above capacity the server must *shed* (503 +
    ``Retry-After``) rather than queue unboundedly, so the accepted-request
    p99 stays bounded while ``shed`` grows; every accepted response is
    still verified against the in-process ``QueryService.run`` ground
    truth (``errors`` and ``mismatches`` are exact gate metrics).

    *rates* are ``(load label, multiple of capacity)`` pairs.  *capacity*
    (requests/second) is calibrated in-situ with a short closed-loop burst
    when ``None``, so the below/above distinction holds on slow and fast
    machines alike; ``repro loadtest`` passes 1.0 and absolute rates.
    """
    # No result cache: the server answers a resident result on its event
    # loop, where it takes no queue slot and can never be shed.  The bounded
    # queue is the shedder under test, so every request must reach the pool.
    service, fb_texts = _service_under_load(
        context, sentences, coding, mss, index, result_cache_size=0
    )
    wh_texts = [item.text for item in context.wh_queries()]
    mix = profile_mix(wh_texts, fb_texts, profile=profile, seed=context.seed)
    # The client fleet must fit inside the server's connection budget:
    # excess clients would be shed at *accept* (503 + close), and the
    # resulting reconnect churn can overflow the listen backlog into
    # client-side resets -- measured as errors, which gate at zero.
    # Here the bounded executor queue is the shedder under test.
    with service, _serving(
        service, mix, url,
        max_queue=max_queue, max_workers=max_workers, max_connections=max_clients + 16,
    ) as (target, expected):
        if capacity is None:
            calibration = run_load(
                target, mix, concurrency=2, duration=calibration_seconds, expected=expected
            )
            capacity = max(calibration.qps, 50.0)  # floor keeps rates sane
        for label, multiple in rates:
            report = run_open_loop(
                target,
                mix,
                rate=capacity * multiple,
                duration=duration_seconds,
                arrivals=arrivals,
                seed=context.seed + int(multiple * 100),
                expected=expected,
                max_clients=max_clients,
            )
            latency = report.percentiles_ms()
            yield (
                label,
                report.rate,
                report.duration_seconds,
                report.offered,
                report.accepted,
                report.shed,
                report.errors,
                report.mismatches,
                report.overflowed,
                latency["p50"] or 0.0,
                latency["p99"] or 0.0,
            )


# ----------------------------------------------------------------------
# Serve mixed read/write: live-index mutations under read traffic
# ----------------------------------------------------------------------
@experiment(
    title="Serve mixed read/write",
    description=(
        "Closed-loop HTTP reads over a live index while a writer thread "
        "adds/deletes trees ({coding}, mss={mss}, fsynced WAL appends)"
    ),
    variables={"phase": REPORTED},
    values={
        "duration_seconds": TIMING,
        "requests": TIMING,
        "errors": "exact",
        "mismatches": "exact",
        "qps": TIMING,
        "adds": TIMING,
        "deletes": TIMING,
        "writes_per_sec": TIMING,
        "p50_ms": TIMING,
        "p99_ms": TIMING,
    },
    notes=(
        "mutating phase: reads race fsynced add/delete pairs (no static ground "
        "truth exists, the gate is zero errors); settled phase: every served "
        "response verified against fresh service.run ground truth",
    ),
)
def serve_mixed_rw(
    context: ExperimentContext,
    sentences: int = 400,
    mss: int = 3,
    coding: str = "root-split",
    duration_seconds: float = 1.5,
    verify_seconds: float = 0.75,
    concurrency: int = 2,
    write_pause: float = 0.002,
) -> Iterator[Row]:
    """HTTP read traffic over a live index while writes mutate it.

    A live index is served over HTTP and driven by the closed-loop WH
    workload while a writer thread adds and deletes held-out trees through
    the WAL'd mutation path (every add acknowledged only after an fsync,
    every add later deleted, so the corpus ends where it began).  During
    the mutating phase responses cannot be compared against a static
    snapshot -- answers legitimately change under their feet -- so the
    gate there is ``errors == 0``: the server never drops or 500s a read
    because a write was in flight.  Once the writer stops, a verification
    pass checks every served response against fresh ``service.run`` ground
    truth (``mismatches`` exact-zero), closing the loop on correctness.
    """
    texts = [item.text for item in context.wh_queries()]
    held_out = context.held_out_trees(64)
    path = os.path.join(context.workdir, f"mixed-rw-{sentences}-{coding}-{mss}")
    live = LiveIndex.create(path, mss=mss, coding=coding, trees=list(context.corpus(sentences)))
    stop = threading.Event()
    counts = {"adds": 0, "deletes": 0}

    def mutate() -> None:
        position = 0
        while not stop.is_set():
            tree = held_out[position % len(held_out)]
            tid = live.add_tree(tree.root)
            counts["adds"] += 1
            time.sleep(write_pause)
            live.delete_tree(tid)
            counts["deletes"] += 1
            position += 1
            time.sleep(write_pause)

    try:
        with QueryService(live) as service:
            service.run_many(texts)  # warm plans and postings
            with ServerThread(service) as thread:
                writer = threading.Thread(target=mutate, name="mixed-rw-writer", daemon=True)
                writer.start()
                try:
                    mutating = run_load(
                        thread.url, texts, concurrency=concurrency, duration=duration_seconds
                    )
                finally:
                    stop.set()
                    writer.join(timeout=30.0)
                writes = counts["adds"] + counts["deletes"]
                yield "mutating", *_closed_loop_row(
                    mutating,
                    counts["adds"],
                    counts["deletes"],
                    writes / (mutating.duration_seconds or 1.0),
                    quantiles=("p50", "p99"),
                )
                # The writer balanced every add with a delete, so the final
                # answers must equal fresh in-process ground truth.
                settled = run_load(
                    thread.url, texts, concurrency=1, duration=verify_seconds,
                    expected=_ground_truth(service, texts),
                )
                yield "settled", *_closed_loop_row(settled, 0, 0, 0.0, quantiles=("p50", "p99"))
    finally:
        live.close()


# ----------------------------------------------------------------------
# Ablations: decomposition policy and B+Tree loading strategy
# ----------------------------------------------------------------------
@experiment(
    title="Ablation: cover construction",
    description=(
        "Average query runtime of the root-split index (mss={mss}) "
        "under different decomposition policies"
    ),
    variables={"policy": REPORTED},
    values={"avg_seconds": "timing:lower", "total_matches": "exact"},
    notes=("all policies must return identical answers (checked while measuring)",),
    warmup=STEADY_STATE,
)
def ablation_cover_selection(
    context: ExperimentContext, sentences: int = 1_200, mss: int = 3
) -> Iterator[Row]:
    """Query runtime of the root-split index under different decomposition policies.

    Ablates padding towards ``mss`` (Section 5.2.1's max-covers) over the
    combined WH + FB workload.  Both policies must return identical answers;
    the experiment raises if one changes any query's matches.
    """
    index = context.subtree_index(sentences, "root-split", mss)
    store = context.tree_store(sentences)
    queries = _workload_queries(context, sentences)
    texts = [query.to_string() for query in queries]  # WH and FB share a few
    baseline_matches: Optional[Dict[str, int]] = None
    for policy, pad in (("minRC + padding (default)", True), ("minRC, no padding", False)):
        seconds, outcomes = _timed(QueryExecutor(index, store=store, pad=pad).execute, queries)
        matches = {text: outcome.total_matches for text, outcome in zip(texts, outcomes)}
        if baseline_matches is None:
            baseline_matches = matches
        elif matches != baseline_matches:
            raise AssertionError(f"policy {policy!r} changed query results")
        yield policy, average(seconds), sum(matches.values())
