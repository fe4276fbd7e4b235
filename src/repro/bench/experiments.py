"""Experiment runners, one per table and figure of the paper's Section 6.

Every runner takes an :class:`~repro.bench.context.ExperimentContext` plus
explicit scale parameters and returns an
:class:`~repro.bench.results.ExperimentResult` whose rows correspond to the
series / rows of the original figure or table.  The default scales are laptop
sized; EXPERIMENTS.md records which scales were used for the committed
numbers and how they compare to the paper's trends.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterable, List, Sequence, Tuple

from repro import obs
from repro.bench.context import ExperimentContext
from repro.bench.results import ExperimentResult
from repro.coding import get_coding
from repro.core.enumeration import subtree_count_by_root_branching
from repro.core.index import accumulate_posting_lists, encode_posting_lists
from repro.core.stats import count_postings, count_unique_keys
from repro.corpus.generator import CorpusGenerator
from repro.exec.executor import QueryExecutor
from repro.live import LiveIndex
from repro.query.decompose import min_rc, optimal_cover
from repro.query.model import QueryTree
from repro.service.service import QueryService
from repro.storage.bptree import BPlusTree
from repro.workloads.binning import MATCH_BINS, average, bin_for_match_count, group_by_query_size
from repro.workloads.wh import WH_GROUPS, wh_queries_by_group

#: The three coding schemes in the paper's display order.
CODINGS = ("filter", "root-split", "subtree-interval")


# ----------------------------------------------------------------------
# Figure 2: number of unique subtrees (index keys) vs corpus size
# ----------------------------------------------------------------------
def figure2_index_keys(
    context: ExperimentContext,
    sentence_counts: Sequence[int] = (1, 10, 100, 1_000, 10_000),
    mss_values: Sequence[int] = (1, 2, 3, 4, 5),
) -> ExperimentResult:
    """Count unique subtrees per ``mss`` for growing corpus sizes."""
    result = ExperimentResult(
        name="Figure 2",
        description="Number of index keys (unique subtrees) as a function of the input size",
        columns=["sentences", "mss", "unique_subtrees"],
    )
    for count in sentence_counts:
        corpus = context.corpus(count)
        keys = count_unique_keys(corpus, list(mss_values))
        for mss in mss_values:
            result.add_row(count, mss, keys[mss])
    result.add_note("paper: near-linear growth with corpus size, parallel curves per mss")
    return result


# ----------------------------------------------------------------------
# Figure 3: subtrees per node vs branching factor
# ----------------------------------------------------------------------
def figure3_branching(
    context: ExperimentContext,
    sentence_count: int = 1_500,
    sizes: Sequence[int] = (2, 3, 4, 5),
) -> ExperimentResult:
    """Average number of extracted subtrees per node by root branching factor."""
    result = ExperimentResult(
        name="Figure 3",
        description="Average number of subtrees per node in terms of the branching factor of the root",
        columns=["branching_factor", "subtree_size", "avg_subtrees"],
    )
    corpus = context.corpus(sentence_count)
    averages = subtree_count_by_root_branching(corpus, sizes=tuple(sizes))
    for branching, per_size in sorted(averages.items()):
        for size in sizes:
            result.add_row(branching, size, per_size.get(size, 0.0))
    result.add_note("paper: counts grow sharply with the branching factor, faster for larger sizes")
    return result


# ----------------------------------------------------------------------
# Figures 8-10 and Table 1: index size, posting counts, construction time
# ----------------------------------------------------------------------
def figure8_index_size(
    context: ExperimentContext,
    sentence_counts: Sequence[int] = (100, 1_000, 5_000),
    mss_values: Sequence[int] = (1, 2, 3, 4, 5),
    codings: Sequence[str] = CODINGS,
) -> ExperimentResult:
    """Index size in bytes per coding scheme, corpus size and ``mss``."""
    result = ExperimentResult(
        name="Figure 8",
        description="Subtree index size (bytes) for the three codings",
        columns=["sentences", "coding", "mss", "size_bytes", "build_seconds"],
    )
    for count in sentence_counts:
        for coding in codings:
            for mss in mss_values:
                index = context.subtree_index(count, coding, mss)
                result.add_row(count, coding, mss, index.size_bytes(), index.metadata.build_seconds)
    result.add_note("paper: filter-based < root-split << subtree interval; gap widens with mss")
    return result


def table1_size_ratio(figure8: ExperimentResult) -> ExperimentResult:
    """Ratio of the index size at ``mss=5`` to the size at ``mss=1`` (Table 1)."""
    result = ExperimentResult(
        name="Table 1",
        description="Ratio of the subtree index size when mss is 5 to the index size when mss is 1",
        columns=["sentences", "coding", "ratio"],
    )
    mss_values = sorted({row[2] for row in figure8.rows})
    low, high = mss_values[0], mss_values[-1]
    for count in sorted({row[0] for row in figure8.rows}):
        for coding in CODINGS:
            small = figure8.filtered(sentences=count, coding=coding, mss=low)
            large = figure8.filtered(sentences=count, coding=coding, mss=high)
            if not small or not large:
                continue
            result.add_row(count, coding, large[0][3] / small[0][3])
    result.add_note("paper: root-split shows the smallest growth ratio (12-15x), subtree interval the largest (~50x)")
    return result


def table1_from_context(
    context: ExperimentContext,
    sentence_counts: Sequence[int] = (100, 1_000, 5_000),
    mss_values: Sequence[int] = (1, 2, 3, 4, 5),
) -> ExperimentResult:
    """Table 1 as a standalone runner: measures Figure 8 and derives the ratios."""
    return table1_size_ratio(
        figure8_index_size(context, sentence_counts=sentence_counts, mss_values=mss_values)
    )


def figure9_posting_counts(
    context: ExperimentContext,
    sentence_counts: Sequence[int] = (100, 1_000, 5_000),
    mss_values: Sequence[int] = (1, 2, 3, 4, 5),
    codings: Sequence[str] = CODINGS,
) -> ExperimentResult:
    """Total number of postings per coding scheme, corpus size and ``mss``."""
    result = ExperimentResult(
        name="Figure 9",
        description="Total number of postings for the three codings",
        columns=["sentences", "coding", "mss", "postings"],
    )
    for count in sentence_counts:
        corpus = context.corpus(count)
        for mss in mss_values:
            totals = count_postings(corpus, mss, list(codings))
            for coding in codings:
                result.add_row(count, coding, mss, totals[coding])
    result.add_note("paper: equal for mss=1 (root-split vs subtree interval); gap widens with mss")
    return result


def figure10_build_time(
    context: ExperimentContext,
    sentence_counts: Sequence[int] = (100, 1_000, 5_000),
    mss_values: Sequence[int] = (1, 2, 3, 4, 5),
    codings: Sequence[str] = CODINGS,
) -> ExperimentResult:
    """Index construction time per coding scheme, corpus size and ``mss``."""
    result = ExperimentResult(
        name="Figure 10",
        description="Index construction time (seconds) for the three codings",
        columns=["sentences", "coding", "mss", "build_seconds"],
    )
    for count in sentence_counts:
        for coding in codings:
            for mss in mss_values:
                index = context.subtree_index(count, coding, mss)
                result.add_row(count, coding, mss, index.metadata.build_seconds)
    result.add_note("paper: filter-based ~ root-split < subtree interval; gap widens with mss")
    return result


# ----------------------------------------------------------------------
# Figures 11-12: query runtime by number of matches and by query size
# ----------------------------------------------------------------------
def _run_workload(
    context: ExperimentContext,
    sentence_count: int,
    coding: str,
    mss: int,
    queries: Iterable[QueryTree],
    repeats: int = 1,
) -> List[Tuple[QueryTree, int, float]]:
    """Run queries against one index; returns (query, match count, avg seconds)."""
    executor = context.executor(sentence_count, coding, mss)
    measurements: List[Tuple[QueryTree, int, float]] = []
    for query in queries:
        elapsed: List[float] = []
        matches = 0
        for _ in range(repeats):
            started = time.perf_counter()
            result = executor.execute(query)
            elapsed.append(time.perf_counter() - started)
            matches = result.total_matches
        measurements.append((query, matches, average(elapsed)))
    return measurements


def _workload_queries(context: ExperimentContext, sentence_count: int, max_fb_size: int = 10) -> List[QueryTree]:
    """The combined WH + FB workload of Section 6.3.1."""
    queries = [item.query for item in context.wh_queries()]
    queries.extend(item.query for item in context.fb_queries(sentence_count, max_size=max_fb_size))
    return queries


def figure11_runtime_by_matches(
    context: ExperimentContext,
    sentence_count: int = 2_000,
    mss_values: Sequence[int] = (1, 2, 3),
    codings: Sequence[str] = CODINGS,
    repeats: int = 1,
) -> ExperimentResult:
    """Average query runtime per match-count bin, coding and ``mss`` (Figure 11)."""
    result = ExperimentResult(
        name="Figure 11",
        description="Average runtime of queries in terms of the number of matches",
        columns=["coding", "mss", "match_bin", "queries", "avg_seconds"],
    )
    queries = _workload_queries(context, sentence_count)
    for coding in codings:
        for mss in mss_values:
            measurements = _run_workload(context, sentence_count, coding, mss, queries, repeats)
            binned: Dict[str, List[float]] = {label: [] for label, _, _ in MATCH_BINS}
            for _, matches, seconds in measurements:
                binned[bin_for_match_count(matches)].append(seconds)
            for label, _, _ in MATCH_BINS:
                times = binned[label]
                if times:
                    result.add_row(coding, mss, label, len(times), average(times))
    result.add_note("paper: runtimes fall as mss grows; root-split fastest for mss >= 2")
    return result


def figure12_runtime_by_query_size(
    context: ExperimentContext,
    sentence_count: int = 2_000,
    mss_values: Sequence[int] = (1, 2, 3),
    codings: Sequence[str] = CODINGS,
    min_matches: int = 10,
    repeats: int = 1,
) -> ExperimentResult:
    """Average query runtime by query size for queries with enough matches (Figure 12)."""
    result = ExperimentResult(
        name="Figure 12",
        description="Average runtime of queries in terms of the size of queries",
        columns=["coding", "mss", "query_size", "queries", "avg_seconds"],
    )
    queries = _workload_queries(context, sentence_count)
    for coding in codings:
        for mss in mss_values:
            measurements = _run_workload(context, sentence_count, coding, mss, queries, repeats)
            entries = [(query.size(), matches, seconds) for query, matches, seconds in measurements]
            for size, times in group_by_query_size(entries, min_matches=min_matches).items():
                result.add_row(coding, mss, size, len(times), average(times))
    result.add_note(
        f"queries with fewer than {min_matches} matches are excluded "
        "(the paper uses 100 at its much larger corpus scale)"
    )
    return result


# ----------------------------------------------------------------------
# Table 2: comparison with ATreeGrep and the frequency-based approach
# ----------------------------------------------------------------------
def table2_system_comparison(
    context: ExperimentContext,
    sentence_count: int = 2_000,
    mss: int = 3,
    cutoffs: Sequence[float] = (0.001, 0.01, 0.10),
    repeats: int = 1,
) -> ExperimentResult:
    """Average FB-query runtime per frequency class for SI root-split vs baselines."""
    result = ExperimentResult(
        name="Table 2",
        description=(
            "Average runtime (seconds) of FB query classes: subtree index with root-split "
            "coding (mss=3) vs ATreeGrep and frequency-based approaches"
        ),
        columns=["class", "system", "avg_seconds"],
    )
    fb = context.fb_queries(sentence_count)
    executor = context.executor(sentence_count, "root-split", mss)
    atreegrep = context.atreegrep(sentence_count)
    frequency_indexes = {cutoff: context.frequency_based(sentence_count, cutoff, mss) for cutoff in cutoffs}

    systems: List[Tuple[str, object]] = [("RS", executor), ("ATG", atreegrep)]
    systems.extend((f"FB({cutoff:g})", frequency_indexes[cutoff]) for cutoff in cutoffs)

    for frequency_class in fb.classes():
        class_queries = [item.query for item in fb.by_class(frequency_class)]
        for system_name, system in systems:
            times: List[float] = []
            for query in class_queries:
                elapsed: List[float] = []
                for _ in range(repeats):
                    started = time.perf_counter()
                    system.execute(query)  # type: ignore[attr-defined]
                    elapsed.append(time.perf_counter() - started)
                times.append(average(elapsed))
            result.add_row(frequency_class, system_name, average(times))
    result.add_note("paper: root-split is at least an order of magnitude faster across all classes")
    return result


# ----------------------------------------------------------------------
# Figure 13: scalability with the corpus size
# ----------------------------------------------------------------------
def figure13_scalability(
    context: ExperimentContext,
    sentence_counts: Sequence[int] = (500, 1_000, 2_000, 4_000),
    mss: int = 3,
    codings: Sequence[str] = CODINGS,
    repeats: int = 1,
) -> ExperimentResult:
    """Average FB-query runtime as the corpus grows (Figure 13; paper uses 1k..1M)."""
    result = ExperimentResult(
        name="Figure 13",
        description="Average runtime of queries (mss=3) over growing corpus sizes",
        columns=["sentences", "coding", "avg_seconds"],
    )
    # The same FB query set is evaluated at every corpus size, as in the paper.
    queries = [item.query for item in context.fb_queries(sentence_counts[0])]
    for count in sentence_counts:
        for coding in codings:
            measurements = _run_workload(context, count, coding, mss, queries, repeats)
            result.add_row(count, coding, average([seconds for _, _, seconds in measurements]))
    result.add_note("paper: near-linear growth; root-split has the smallest growth factor")
    return result


# ----------------------------------------------------------------------
# Table 3: number of joins per decomposition algorithm
# ----------------------------------------------------------------------
def table3_join_counts(
    mss_values: Sequence[int] = (2, 3, 4, 5),
) -> ExperimentResult:
    """Average number of joins per WH query group for minRC vs optimalCover (Table 3)."""
    result = ExperimentResult(
        name="Table 3",
        description=(
            "Average number of joins required over queries in the WH query set: "
            "r = root-split (minRC), s = subtree interval (optimalCover)"
        ),
        columns=["group", "mss", "joins_root_split", "joins_subtree_interval"],
    )
    grouped = wh_queries_by_group()
    for group in WH_GROUPS:
        queries = [item.query for item in grouped[group]]
        for mss in mss_values:
            rs = average([float(len(min_rc(query, mss)) - 1) for query in queries])
            si = average([float(len(optimal_cover(query, mss)) - 1) for query in queries])
            result.add_row(group, mss, rs, si)
    result.add_note("paper: optimalCover needs fewer joins; both decrease as mss grows")
    return result


# ----------------------------------------------------------------------
# Sharding experiment: parallel build speedup and merged-read query latency
# ----------------------------------------------------------------------
def shard_scalability(
    context: ExperimentContext,
    sentence_count: int = 1_200,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    mss: int = 3,
    coding: str = "root-split",
    partitioner: str = "hash",
    warm_passes: int = 2,
) -> ExperimentResult:
    """Build time and query latency of the WH workload at 1/2/4/8 shards.

    For every shard count N the corpus is partitioned, built with N worker
    processes (one per shard) and served through a fresh
    :class:`QueryService`:

    * **build_seconds** -- wall time of the whole sharded build (partition,
      N parallel ``SubtreeIndex`` + ``TreeStore`` builds, manifest write);
    * **build_speedup** -- the 1-shard build time divided by this row's
      (> 1 means the parallel build won; bounded by the core count);
    * **cold/warm_ms_per_query** -- latency of the WH workload (one join
      over the posting lists merged across shards) with empty caches -- the
      fastest of five passes, each through a fresh service: one pass is
      ~30 ms of wall clock, too little to compare rows by -- and
      after *warm_passes* repetitions.  "Cold" is the service's caches; the
      registry's warm-up run leaves the join kernels compiled and the
      B+Tree pages resident for every row alike;
    * **total_matches** -- summed over the workload; identical across rows
      by the merge-correctness invariant, and asserted on by the benchmark.

    The baseline row is the 1-shard configuration when present (one shard,
    one worker, no pool -- the same work the unsharded builder does),
    otherwise the smallest shard count requested.
    """
    result = ExperimentResult(
        name="Shard scalability",
        description=(
            "Parallel build time and merged-read query latency of the sharded index "
            f"({coding}, mss={mss}, {sentence_count} sentences, WH workload)"
        ),
        columns=[
            "shards",
            "workers",
            "build_seconds",
            "build_speedup",
            "cold_ms_per_query",
            "warm_ms_per_query",
            "total_matches",
        ],
    )
    queries = [item.query for item in context.wh_queries()]
    cold_passes = 5
    # Build every configuration first so the speedup baseline exists no
    # matter how shard_counts is ordered (or whether it includes 1 at all).
    built = {
        shards: context.sharded_index(
            sentence_count, coding, mss, shards, workers=shards, partitioner=partitioner
        )
        for shards in shard_counts
    }
    baseline_shards = 1 if 1 in built else min(built)
    base_build_seconds = built[baseline_shards].manifest.build_seconds

    for shards in shard_counts:
        sharded = built[shards]
        workers = shards
        build_seconds = sharded.manifest.build_seconds
        sharded.reset_probe_stats()
        cold_seconds = float("inf")
        for _ in range(cold_passes):
            service = QueryService(sharded)  # replaces the last pass's caches
            total_matches = 0
            cold_started = time.perf_counter()
            for query in queries:
                total_matches += service.run(query).total_matches
            cold_seconds = min(cold_seconds, time.perf_counter() - cold_started)
        try:
            warm_started = time.perf_counter()
            for _ in range(warm_passes):
                for query in queries:
                    service.run(query)
            warm_seconds = (time.perf_counter() - warm_started) / warm_passes
        finally:
            service.close()

        result.add_row(
            shards,
            workers,
            build_seconds,
            base_build_seconds / build_seconds if build_seconds else float("inf"),
            cold_seconds * 1000 / len(queries),
            warm_seconds * 1000 / len(queries),
            total_matches,
        )
    result.add_note(
        f"build_speedup is relative to the {baseline_shards}-shard build; "
        "parallel gains require as many free cores as workers"
    )
    result.add_note(
        f"cold is the fastest of {cold_passes} passes, each through a fresh service "
        "(empty plan, posting and result caches; join kernels already compiled)"
    )
    result.add_note(
        "warm passes repeat the workload through the populated service caches "
        "(plans, merged postings and results)"
    )
    return result


# ----------------------------------------------------------------------
# Live-index experiment: update throughput, delta-fraction latency, compaction
# ----------------------------------------------------------------------
def update_throughput(
    context: ExperimentContext,
    sentence_count: int = 600,
    delta_fractions: Sequence[float] = (0.0, 0.10, 0.50),
    mss: int = 3,
    coding: str = "root-split",
) -> ExperimentResult:
    """Mutation cost of the live index at growing delta fractions.

    For every fraction *f* a live index is created over the base corpus and
    ``f * sentence_count`` extra trees are appended through the WAL'd
    ``add_tree`` path.  The row records:

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
    result = ExperimentResult(
        name="Update throughput",
        description=(
            "Live-index mutation cost: fsynced adds/sec, WH query latency at "
            f"0/10/50% delta fraction, and compaction time ({coding}, mss={mss}, "
            f"{sentence_count}-sentence base corpus)"
        ),
        columns=[
            "delta_fraction",
            "base_trees",
            "delta_trees",
            "adds_per_sec",
            "query_ms_delta",
            "compact_seconds",
            "query_ms_compacted",
            "total_matches",
            "total_matches_compacted",
        ],
    )
    queries = [item.query for item in context.wh_queries()]
    base = list(context.corpus(sentence_count))

    def run_workload(live: LiveIndex) -> Tuple[float, int]:
        """Cold ms/query and summed matches through a fresh QueryService."""
        service = QueryService(live)
        try:
            total = 0
            started = time.perf_counter()
            for query in queries:
                total += service.run(query).total_matches
            return (time.perf_counter() - started) * 1000 / len(queries), total
        finally:
            service.close()

    for fraction in delta_fractions:
        delta_count = int(round(sentence_count * fraction))
        extra = CorpusGenerator(seed=context.seed + 104729).generate_list(delta_count)
        path = os.path.join(
            context.workdir, f"live-{sentence_count}-{coding}-{mss}-f{int(fraction * 100)}"
        )
        live = LiveIndex.create(path, mss=mss, coding=coding, trees=base)
        try:
            add_started = time.perf_counter()
            for tree in extra:
                live.add_tree(tree.root)
            add_seconds = time.perf_counter() - add_started
            delta_ms, total = run_workload(live)
            compact_seconds = live.compact().seconds if delta_count else 0.0
            compacted_ms, total_compacted = run_workload(live)
        finally:
            live.close()
        result.add_row(
            fraction,
            len(base),
            delta_count,
            delta_count / add_seconds if add_seconds and delta_count else 0.0,
            delta_ms,
            compact_seconds,
            compacted_ms,
            total,
            total_compacted,
        )
    result.add_note(
        "adds are acknowledged only after an fsynced WAL append; delta queries "
        "merge the in-memory memtable with the base segment at lookup time"
    )
    result.add_note("total_matches == total_matches_compacted is the equivalence invariant")
    return result


# ----------------------------------------------------------------------
# Serving experiment: cold vs warm-cache latency through the QueryService
# ----------------------------------------------------------------------
def serve_cold_warm(
    context: ExperimentContext,
    sentence_count: int = 1_200,
    mss: int = 3,
    codings: Sequence[str] = ("root-split", "subtree-interval"),
    warm_passes: int = 3,
) -> ExperimentResult:
    """Cold vs warm vs hot latency of the WH workload served repeatedly.

    Each coding's index is wrapped in a fresh :class:`QueryService` and the
    WH query set is evaluated at three cache temperatures:

    * **cold** -- empty caches: parse + decompose + fetch + join per query;
    * **warm** -- plan and posting caches populated (result cache disabled):
      joins still run, but parsing, decomposition, B+Tree descents and
      posting decoding are all served from memory;
    * **hot** -- the result cache answers identical repeats outright.

    This is the serving-layer counterpart of Figures 11/12: the same joins,
    with progressively more of the pipeline amortised across repetitions.
    """
    result = ExperimentResult(
        name="Serve",
        description="Cold vs warm-cache vs hot-cache latency of repeated queries through QueryService",
        columns=[
            "coding",
            "queries",
            "cold_ms_per_query",
            "warm_ms_per_query",
            "hot_ms_per_query",
            "warm_speedup",
            "hot_speedup",
            "postings_hit_rate",
            "tree_descents",
        ],
    )
    queries = [item.query for item in context.wh_queries()]
    for coding in codings:
        index = context.subtree_index(sentence_count, coding, mss)
        store = context.tree_store(sentence_count)
        index.reset_probe_stats()  # the context shares indexes across experiments
        service = QueryService(index, store=store, result_cache_size=0)
        try:
            cold_started = time.perf_counter()
            for query in queries:
                service.run(query)
            cold_seconds = time.perf_counter() - cold_started

            warm_started = time.perf_counter()
            for _ in range(warm_passes):
                for query in queries:
                    service.run(query)
            warm_seconds = (time.perf_counter() - warm_started) / warm_passes
            warm_stats = service.stats()
        finally:
            # The context owns the index; only drop the service's caches.
            service.clear_caches()
            index.attach_postings_cache(None)

        hot_service = QueryService(index, store=store)
        try:
            for query in queries:  # populate every cache, result cache included
                hot_service.run(query)
            hot_started = time.perf_counter()
            for _ in range(warm_passes):
                for query in queries:
                    hot_service.run(query)
            hot_seconds = (time.perf_counter() - hot_started) / warm_passes
        finally:
            hot_service.clear_caches()
            index.attach_postings_cache(None)

        result.add_row(
            coding,
            len(queries),
            cold_seconds * 1000 / len(queries),
            warm_seconds * 1000 / len(queries),
            hot_seconds * 1000 / len(queries),
            cold_seconds / warm_seconds if warm_seconds else float("inf"),
            cold_seconds / hot_seconds if hot_seconds else float("inf"),
            warm_stats.postings.hit_rate,
            warm_stats.probes.tree_descents,
        )
    result.add_note(
        "warm reuses cached plans and decoded postings (joins still run); "
        "hot answers identical repeats from the result cache"
    )
    return result


# ----------------------------------------------------------------------
# Serve HTTP: closed-loop throughput/latency through the asyncio server
# ----------------------------------------------------------------------
def serve_http_throughput(
    context: ExperimentContext,
    sentence_count: int = 600,
    mss: int = 3,
    coding: str = "root-split",
    concurrency_levels: Sequence[int] = (1, 2, 4),
    duration_seconds: float = 1.0,
    flush_window: float = 0.002,
) -> ExperimentResult:
    """Throughput vs latency of the HTTP serving layer under a closed loop.

    The WH + FB query mix is driven through :mod:`repro.serve`'s asyncio
    server by the closed-loop load generator at each concurrency level.
    Every response payload is checked against the in-process
    ``QueryService.run`` ground truth (the ``mismatches`` column must stay
    zero: the HTTP hop adds latency, never different answers), so the
    experiment is simultaneously the serving-layer equivalence test and its
    performance profile.
    """
    from repro.serve.loadgen import run_load
    from repro.serve.server import ServerThread, result_to_dict

    result = ExperimentResult(
        name="Serve HTTP throughput",
        description=(
            "Closed-loop throughput and latency of the asyncio HTTP server "
            f"over the {coding} index (mss={mss})"
        ),
        columns=[
            "concurrency",
            "duration_seconds",
            "requests",
            "errors",
            "mismatches",
            "qps",
            "qps_traced",
            "trace_overhead_pct",
            "p50_ms",
            "p95_ms",
            "p99_ms",
        ],
    )
    index = context.subtree_index(sentence_count, coding, mss)
    store = context.tree_store(sentence_count)
    texts = [item.text for item in context.wh_queries()]
    texts.extend(item.text for item in context.fb_queries(sentence_count))
    service = QueryService(index, store=store)
    try:
        # Warm every cache, then snapshot the ground truth.  With warm
        # result caches the server returns the very objects the snapshot
        # was built from, so responses must match byte for byte.
        service.run_many(texts)
        expected = {text: _json_roundtrip(result_to_dict(service.run(text))) for text in texts}
        with ServerThread(service, flush_window=flush_window) as thread:
            for concurrency in concurrency_levels:
                report = run_load(
                    thread.url,
                    texts,
                    concurrency=concurrency,
                    duration=duration_seconds,
                    expected=expected,
                )
                # Same load with request tracing on, to price the observable
                # path.  The server checks the global flag per request, so no
                # restart is needed; errors/mismatches from both passes land
                # in the same exact-gated columns.
                owned_tracer = not obs.enabled()
                if owned_tracer:
                    obs.enable(obs.Tracer(capacity=256))
                try:
                    traced = run_load(
                        thread.url,
                        texts,
                        concurrency=concurrency,
                        duration=duration_seconds,
                        expected=expected,
                    )
                finally:
                    if owned_tracer:
                        obs.disable()
                overhead_pct = (
                    (report.qps - traced.qps) / report.qps * 100.0 if report.qps else 0.0
                )
                latency = report.percentiles_ms()
                result.add_row(
                    concurrency,
                    report.duration_seconds,
                    report.requests,
                    report.errors + traced.errors,
                    report.mismatches + traced.mismatches,
                    report.qps,
                    traced.qps,
                    round(overhead_pct, 2),
                    latency["p50"],
                    latency["p95"],
                    latency["p99"],
                )
    finally:
        # The context owns the index; only drop the service's caches.
        service.clear_caches()
        index.attach_postings_cache(None)
    result.add_note(
        "closed loop: each client issues its next query only after the previous "
        "response; mismatches counts responses that differ from QueryService.run "
        "(untraced and traced passes summed); qps_traced repeats the run with "
        "request tracing enabled"
    )
    return result


def _json_roundtrip(payload: Dict[str, object]) -> Dict[str, object]:
    """*payload* as it looks after one encode/decode hop (float repr etc.)."""
    return json.loads(json.dumps(payload))


# ----------------------------------------------------------------------
# Serve overload: open-loop fixed-rate arrivals vs the bounded queue
# ----------------------------------------------------------------------
def serve_overload(
    context: ExperimentContext,
    sentence_count: int = 600,
    mss: int = 3,
    coding: str = "root-split",
    duration_seconds: float = 1.5,
    calibration_seconds: float = 0.75,
    rate_multiples: Sequence[Tuple[str, float]] = (("below", 0.5), ("above", 3.0)),
    arrivals: str = "poisson",
    max_queue: int = 16,
    max_workers: int = 2,
    max_clients: int = 128,
    profile: str = "fb_heavy",
) -> ExperimentResult:
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

    Capacity is calibrated in-situ with a short closed-loop burst, so the
    below/above distinction holds on slow and fast machines alike.
    """
    from repro.serve.loadgen import profile_mix, run_load, run_open_loop
    from repro.serve.server import ServerThread, result_to_dict

    result = ExperimentResult(
        name="Serve overload",
        description=(
            "Open-loop fixed-rate load below/above capacity against the "
            f"bounded-queue HTTP server ({coding}, mss={mss}, "
            f"max_queue={max_queue}, {arrivals} arrivals)"
        ),
        columns=[
            "load",
            "rate_qps",
            "duration_seconds",
            "offered",
            "accepted",
            "shed",
            "errors",
            "mismatches",
            "overflowed",
            "p50_ms",
            "p99_ms",
        ],
    )
    index = context.subtree_index(sentence_count, coding, mss)
    store = context.tree_store(sentence_count)
    wh_texts = [item.text for item in context.wh_queries()]
    fb_texts = [item.text for item in context.fb_queries(sentence_count)]
    mix = profile_mix(wh_texts, fb_texts, profile=profile, seed=context.seed)
    # No result cache: the server answers a resident result on its event
    # loop, where it takes no queue slot and can never be shed.  The bounded
    # queue is the shedder under test, so every request must reach the pool.
    service = QueryService(index, store=store, result_cache_size=0)
    try:
        # Warm the plan and posting caches, then snapshot the ground truth
        # the open-loop clients verify accepted responses against.
        service.run_many(mix)
        expected = {
            text: _json_roundtrip(result_to_dict(service.run(text)))
            for text in dict.fromkeys(mix)
        }
        # The client fleet must fit inside the server's connection budget:
        # excess clients would be shed at *accept* (503 + close), and the
        # resulting reconnect churn can overflow the listen backlog into
        # client-side resets -- measured as errors, which gate at zero.
        # Here the bounded executor queue is the shedder under test.
        with ServerThread(
            service, max_queue=max_queue, max_workers=max_workers,
            max_connections=max_clients + 16,
        ) as thread:
            calibration = run_load(
                thread.url, mix, concurrency=2, duration=calibration_seconds,
                expected=expected,
            )
            capacity = max(calibration.qps, 50.0)  # floor keeps rates sane
            for label, multiple in rate_multiples:
                report = run_open_loop(
                    thread.url,
                    mix,
                    rate=capacity * multiple,
                    duration=duration_seconds,
                    arrivals=arrivals,
                    seed=context.seed + int(multiple * 100),
                    expected=expected,
                    max_clients=max_clients,
                )
                latency = report.percentiles_ms()
                result.add_row(
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
    finally:
        # The context owns the index; only drop the service's caches.
        service.clear_caches()
        index.attach_postings_cache(None)
    result.add_note(
        f"open loop: {arrivals} arrivals at a fixed rate regardless of response "
        "times, so overload latency is measured honestly; 'shed' counts 503 "
        "load-shedding responses (bounded executor queue), which are not errors"
    )
    result.add_note(
        "capacity is measured in-situ by a short closed-loop calibration burst; "
        "'below'/'above' rates are fixed multiples of it"
    )
    result.add_note(
        "the service runs without a result cache, so every request executes on "
        "the pool; tables from before PR 16 served warm result-cache hits "
        "through the pool and are not comparable with these rows"
    )
    return result


# ----------------------------------------------------------------------
# Serve mixed read/write: live-index mutations under read traffic
# ----------------------------------------------------------------------
def serve_mixed_rw(
    context: ExperimentContext,
    sentence_count: int = 400,
    mss: int = 3,
    coding: str = "root-split",
    duration_seconds: float = 1.5,
    verify_seconds: float = 0.75,
    concurrency: int = 2,
    write_pause: float = 0.002,
) -> ExperimentResult:
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
    from repro.serve.loadgen import run_load
    from repro.serve.server import ServerThread, result_to_dict

    result = ExperimentResult(
        name="Serve mixed read/write",
        description=(
            "Closed-loop HTTP reads over a live index while a writer thread "
            f"adds/deletes trees ({coding}, mss={mss}, fsynced WAL appends)"
        ),
        columns=[
            "phase",
            "duration_seconds",
            "requests",
            "errors",
            "mismatches",
            "qps",
            "adds",
            "deletes",
            "writes_per_sec",
            "p50_ms",
            "p99_ms",
        ],
    )
    texts = [item.text for item in context.wh_queries()]
    base = list(context.corpus(sentence_count))
    path = os.path.join(context.workdir, f"mixed-rw-{sentence_count}-{coding}-{mss}")
    live = LiveIndex.create(path, mss=mss, coding=coding, trees=base)
    try:
        service = QueryService(live)
        try:
            service.run_many(texts)  # warm plans and postings
            held_out = context.held_out_trees(64)
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

            with ServerThread(service) as thread:
                writer = threading.Thread(target=mutate, name="mixed-rw-writer", daemon=True)
                writer.start()
                try:
                    mutating = run_load(
                        thread.url, texts, concurrency=concurrency,
                        duration=duration_seconds,
                    )
                finally:
                    stop.set()
                    writer.join(timeout=30.0)
                write_seconds = mutating.duration_seconds or 1.0
                latency = mutating.percentiles_ms()
                result.add_row(
                    "mutating",
                    mutating.duration_seconds,
                    mutating.requests,
                    mutating.errors,
                    mutating.mismatches,
                    mutating.qps,
                    counts["adds"],
                    counts["deletes"],
                    (counts["adds"] + counts["deletes"]) / write_seconds,
                    latency["p50"] or 0.0,
                    latency["p99"] or 0.0,
                )
                # The writer balanced every add with a delete, so the final
                # answers must equal fresh in-process ground truth.
                expected = {
                    text: _json_roundtrip(result_to_dict(service.run(text)))
                    for text in texts
                }
                settled = run_load(
                    thread.url, texts, concurrency=1, duration=verify_seconds,
                    expected=expected,
                )
                latency = settled.percentiles_ms()
                result.add_row(
                    "settled",
                    settled.duration_seconds,
                    settled.requests,
                    settled.errors,
                    settled.mismatches,
                    settled.qps,
                    0,
                    0,
                    0.0,
                    latency["p50"] or 0.0,
                    latency["p99"] or 0.0,
                )
        finally:
            service.close()
    finally:
        live.close()
    result.add_note(
        "mutating phase: reads race fsynced add/delete pairs (no static ground "
        "truth exists, the gate is zero errors); settled phase: every served "
        "response verified against fresh service.run ground truth"
    )
    return result


# ----------------------------------------------------------------------
# Ablations: decomposition policy and B+Tree loading strategy
# ----------------------------------------------------------------------
def ablation_cover_selection(
    context: ExperimentContext,
    sentence_count: int = 1_200,
    mss: int = 3,
) -> ExperimentResult:
    """Query runtime of the root-split index under different decomposition policies.

    Ablates padding towards ``mss`` (Section 5.2.1's max-covers) over the
    combined WH + FB workload.  Both policies must return identical answers;
    the experiment raises if one changes any query's matches.
    """
    result = ExperimentResult(
        name="Ablation: cover construction",
        description=(
            "Average query runtime of the root-split index (mss="
            f"{mss}) under different decomposition policies"
        ),
        columns=["policy", "avg_seconds", "total_matches"],
    )
    index = context.subtree_index(sentence_count, "root-split", mss)
    store = context.tree_store(sentence_count)
    queries = _workload_queries(context, sentence_count)
    variants = [
        ("minRC + padding (default)", QueryExecutor(index, store=store, pad=True)),
        ("minRC, no padding", QueryExecutor(index, store=store, pad=False)),
    ]
    baseline_matches: Dict[str, int] = {}
    for policy, executor in variants:
        times: List[float] = []
        matches: Dict[str, int] = {}
        for query in queries:
            started = time.perf_counter()
            outcome = executor.execute(query)
            times.append(time.perf_counter() - started)
            matches[query.to_string()] = outcome.total_matches
        if not baseline_matches:
            baseline_matches = matches
        elif matches != baseline_matches:
            raise AssertionError(f"policy {policy!r} changed query results")
        result.add_row(policy, average(times), sum(matches.values()))
    result.add_note("all policies must return identical answers (checked while measuring)")
    return result


def ablation_storage(
    context: ExperimentContext,
    sentence_count: int = 300,
    mss: int = 3,
    coding: str = "root-split",
) -> ExperimentResult:
    """Building the index B+Tree by sorted bulk load vs one insert per key.

    The subtree index bulk-loads its B+Tree from key-sorted posting lists
    (the paper builds once over a static corpus); this quantifies what that
    buys over naive per-key inserts and checks both strategies answer
    lookups identically.
    """
    result = ExperimentResult(
        name="Ablation: B+Tree loading strategy",
        description="Building the index B+Tree by sorted bulk load vs one insert per key",
        columns=["strategy", "seconds", "file_bytes", "height"],
    )
    scheme = get_coding(coding)
    bodies, _ = accumulate_posting_lists(context.corpus(sentence_count), mss, scheme)
    items = list(encode_posting_lists(bodies, scheme))

    strategies = ("bulk load (sorted)", "per-key inserts")
    trees: List[BPlusTree] = []
    try:
        for strategy in strategies:
            stem = "bulk" if strategy.startswith("bulk") else "insert"
            path = os.path.join(context.workdir, f"ablation-{sentence_count}-{mss}-{stem}.bpt")
            if os.path.exists(path):
                os.remove(path)
            started = time.perf_counter()
            tree = BPlusTree(path)
            if stem == "bulk":
                tree.bulk_load(items)
            else:
                for key, value in items:
                    tree.insert(key, value)
            seconds = time.perf_counter() - started
            trees.append(tree)
            result.add_row(strategy, seconds, tree.size_bytes(), tree.height)

        # Both trees must answer lookups identically (sampled).
        bulk, inserted = trees
        for key, value in items[:: max(1, len(items) // 200)]:
            assert bulk.get(key) == value == inserted.get(key)
    finally:
        for tree in trees:
            tree.close()
    result.add_note("both strategies must answer sampled lookups identically (checked)")
    return result
