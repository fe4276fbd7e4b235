"""The central experiment registry.

Every benchmark the repo knows how to run is registered here as an
:class:`~repro.bench.config.ExperimentConfig` naming a runner function from
:mod:`repro.bench.experiments`.  The ``benchmarks/test_*`` files, the
``repro bench`` CLI and the regression gate all resolve experiments through
this registry, so corpus sizes, row identities and gated metrics live in
exactly one place.

Default parameters are the laptop-scale sizes the committed numbers in
``benchmarks/results/`` were measured at; pass a scale factor (or set
``REPRO_BENCH_SCALE``) to shrink or grow every corpus proportionally.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.bench import experiments as _experiments
from repro.bench.config import ExperimentConfig
from repro.bench.context import ExperimentContext
from repro.bench.results import ExperimentResult

#: Runner-function registry: config.runner -> callable(context, **params).
RUNNERS: Dict[str, Callable[..., ExperimentResult]] = {
    "figure2_index_keys": _experiments.figure2_index_keys,
    "figure3_branching": _experiments.figure3_branching,
    "figure8_index_size": _experiments.figure8_index_size,
    "table1_from_context": _experiments.table1_from_context,
    "figure9_posting_counts": _experiments.figure9_posting_counts,
    "figure10_build_time": _experiments.figure10_build_time,
    "figure11_runtime_by_matches": _experiments.figure11_runtime_by_matches,
    "figure12_runtime_by_query_size": _experiments.figure12_runtime_by_query_size,
    "figure13_scalability": _experiments.figure13_scalability,
    "table2_system_comparison": _experiments.table2_system_comparison,
    "table3_join_counts": lambda context, **params: _experiments.table3_join_counts(**params),
    "serve_cold_warm": _experiments.serve_cold_warm,
    "serve_http_throughput": _experiments.serve_http_throughput,
    "serve_overload": _experiments.serve_overload,
    "serve_mixed_rw": _experiments.serve_mixed_rw,
    "shard_scalability": _experiments.shard_scalability,
    "update_throughput": _experiments.update_throughput,
    "ablation_cover_selection": _experiments.ablation_cover_selection,
    "ablation_storage": _experiments.ablation_storage,
}

_REGISTRY: Dict[str, ExperimentConfig] = {}

#: ``warmup`` of the experiments that time every query *once*: the join runs a
#: kernel generated per plan shape (:mod:`repro.exec.codegen`) and the first
#: execution of a shape in a process pays ~0.5 ms to compile it -- more than
#: the query.  One discarded run leaves every shape compiled, so the measured
#: run is steady state, like ``perfbench``'s (``docs/benchmarks.md``).
STEADY_STATE = 1


class UnknownExperimentError(KeyError):
    """No experiment with the requested name is registered."""


def register(config: ExperimentConfig, replace: bool = False) -> ExperimentConfig:
    """Add *config* to the registry (``replace=True`` to overwrite)."""
    if config.runner not in RUNNERS:
        raise ValueError(f"config {config.name!r} names unknown runner {config.runner!r}")
    if config.name in _REGISTRY and not replace:
        raise ValueError(f"experiment {config.name!r} is already registered")
    _REGISTRY[config.name] = config
    return config


def get_config(name: str) -> ExperimentConfig:
    """The registered config named *name*."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownExperimentError(f"unknown experiment {name!r} (known: {known})") from None


def experiment_names() -> List[str]:
    """All registered experiment names, in registration order."""
    return list(_REGISTRY)


def all_configs() -> List[ExperimentConfig]:
    """All registered configs, in registration order."""
    return list(_REGISTRY.values())


def run_config(config: ExperimentConfig, context: ExperimentContext) -> ExperimentResult:
    """Invoke the config's runner on *context* (no reporting; see runner.py)."""
    return RUNNERS[config.runner](context, **dict(config.params))


# ----------------------------------------------------------------------
# The built-in experiments (one per benchmarks/test_* file).
# ----------------------------------------------------------------------
register(ExperimentConfig(
    name="figure2_index_keys",
    title="Figure 2",
    description="Number of index keys (unique subtrees) as a function of the input size",
    runner="figure2_index_keys",
    params={"sentence_counts": (1, 10, 100, 1_000)},
    key_columns=("sentences", "mss"),
    metrics={"unique_subtrees": "exact"},
))

register(ExperimentConfig(
    name="figure3_branching",
    title="Figure 3",
    description="Average number of subtrees per node by root branching factor",
    runner="figure3_branching",
    params={"sentence_count": 1_000},
    key_columns=("branching_factor", "subtree_size"),
    metrics={"avg_subtrees": "exact"},
))

register(ExperimentConfig(
    name="figure8_index_size",
    title="Figure 8",
    description="Subtree index size (bytes) for the three codings",
    runner="figure8_index_size",
    params={"sentence_counts": (100, 400, 1_200)},
    key_columns=("sentences", "coding", "mss"),
    metrics={"size_bytes": "lower", "build_seconds": "lower"},
    timing_columns=("build_seconds",),
))

register(ExperimentConfig(
    name="table1_size_ratio",
    title="Table 1",
    description="Ratio of the subtree index size at mss=5 to the size at mss=1",
    runner="table1_from_context",
    params={"sentence_counts": (100, 400, 1_200)},
    key_columns=("sentences", "coding"),
    metrics={"ratio": "lower"},
))

register(ExperimentConfig(
    name="figure9_postings",
    title="Figure 9",
    description="Total number of postings for the three codings",
    runner="figure9_posting_counts",
    params={"sentence_counts": (100, 400, 1_200)},
    key_columns=("sentences", "coding", "mss"),
    metrics={"postings": "exact"},
))

register(ExperimentConfig(
    name="figure10_build_time",
    title="Figure 10",
    description="Index construction time (seconds) for the three codings",
    runner="figure10_build_time",
    params={"sentence_counts": (100, 400, 1_200)},
    key_columns=("sentences", "coding", "mss"),
    metrics={"build_seconds": "lower"},
    timing_columns=("build_seconds",),
))

register(ExperimentConfig(
    name="figure11_runtime_by_matches",
    title="Figure 11",
    description="Average runtime of queries in terms of the number of matches",
    runner="figure11_runtime_by_matches",
    params={"sentence_count": 1_200, "mss_values": (1, 2, 3)},
    key_columns=("coding", "mss", "match_bin"),
    metrics={"avg_seconds": "lower", "queries": "exact"},
    timing_columns=("avg_seconds",),
    warmup=STEADY_STATE,
))

register(ExperimentConfig(
    name="figure12_runtime_by_size",
    title="Figure 12",
    description="Average runtime of queries in terms of the size of queries",
    runner="figure12_runtime_by_query_size",
    params={"sentence_count": 1_200, "mss_values": (1, 2, 3), "min_matches": 10},
    key_columns=("coding", "mss", "query_size"),
    metrics={"avg_seconds": "lower", "queries": "exact"},
    timing_columns=("avg_seconds",),
    warmup=STEADY_STATE,
))

register(ExperimentConfig(
    name="figure13_scalability",
    title="Figure 13",
    description="Average runtime of queries (mss=3) over growing corpus sizes",
    runner="figure13_scalability",
    params={"sentence_counts": (300, 600, 1_200, 2_400)},
    key_columns=("sentences", "coding"),
    metrics={"avg_seconds": "lower"},
    timing_columns=("avg_seconds",),
    warmup=STEADY_STATE,
))

register(ExperimentConfig(
    name="table2_system_comparison",
    title="Table 2",
    description="FB query classes: subtree index (root-split) vs ATreeGrep and frequency-based",
    runner="table2_system_comparison",
    params={"sentence_count": 2_400},
    key_columns=("class", "system"),
    metrics={"avg_seconds": "lower"},
    timing_columns=("avg_seconds",),
    warmup=STEADY_STATE,
))

register(ExperimentConfig(
    name="table3_join_counts",
    title="Table 3",
    description="Average number of joins per WH query group: minRC vs optimalCover",
    runner="table3_join_counts",
    params={"mss_values": (2, 3, 4, 5)},
    key_columns=("group", "mss"),
    metrics={"joins_root_split": "exact", "joins_subtree_interval": "exact"},
))

register(ExperimentConfig(
    name="serve_cold_warm",
    title="Serve",
    description="Cold vs warm-cache vs hot-cache latency through QueryService",
    runner="serve_cold_warm",
    params={"sentence_count": 1_200, "mss": 3},
    key_columns=("coding",),
    metrics={"cold_ms_per_query": "lower", "warm_ms_per_query": "lower"},
    timing_columns=(
        "cold_ms_per_query",
        "warm_ms_per_query",
        "hot_ms_per_query",
        "warm_speedup",
        "hot_speedup",
    ),
    warmup=STEADY_STATE,  # "cold" is cold caches, not a cold join-kernel table
))

register(ExperimentConfig(
    name="serve_http_throughput",
    title="Serve HTTP throughput",
    description="Closed-loop throughput vs latency of the asyncio HTTP query server",
    runner="serve_http_throughput",
    params={"sentence_count": 600, "concurrency_levels": (1, 2, 4), "duration_seconds": 1.0},
    key_columns=("concurrency",),
    metrics={"errors": "exact", "mismatches": "exact"},
    timing_columns=(
        "duration_seconds",
        "requests",
        "qps",
        "qps_traced",
        "trace_overhead_pct",
        "p50_ms",
        "p95_ms",
        "p99_ms",
    ),
))

register(ExperimentConfig(
    name="serve_overload",
    title="Serve overload",
    description="Open-loop overload: load shedding, bounded latency, zero wrong answers",
    runner="serve_overload",
    params={
        "sentence_count": 600,
        "duration_seconds": 1.5,
        "calibration_seconds": 0.75,
        "max_queue": 16,
        "max_workers": 2,
        "profile": "fb_heavy",
    },
    key_columns=("load",),
    metrics={"errors": "exact", "mismatches": "exact"},
    timing_columns=(
        "rate_qps",
        "offered",
        "accepted",
        "shed",
        "overflowed",
        "duration_seconds",
        "p50_ms",
        "p99_ms",
    ),
))

register(ExperimentConfig(
    name="serve_mixed_rw",
    title="Serve mixed read/write",
    description="Queries against a live index under concurrent adds/deletes, then settled verification",
    runner="serve_mixed_rw",
    params={
        "sentence_count": 400,
        "duration_seconds": 1.5,
        "verify_seconds": 0.75,
        "concurrency": 2,
    },
    key_columns=("phase",),
    metrics={"errors": "exact", "mismatches": "exact"},
    timing_columns=(
        "duration_seconds",
        "requests",
        "qps",
        "adds",
        "deletes",
        "writes_per_sec",
        "p50_ms",
        "p99_ms",
    ),
))

register(ExperimentConfig(
    name="shard_scalability",
    title="Shard scalability",
    description="Parallel build time and merged-read query latency of the sharded index",
    runner="shard_scalability",
    params={"sentence_count": 1_200, "shard_counts": (1, 2, 4, 8)},
    key_columns=("shards",),
    metrics={
        "total_matches": "exact",
        "cold_ms_per_query": "lower",
        "warm_ms_per_query": "lower",
    },
    timing_columns=(
        "build_seconds",
        "build_speedup",
        "cold_ms_per_query",
        "warm_ms_per_query",
    ),
    warmup=STEADY_STATE,  # the rows are compared; the first must not pay the kernels
))

register(ExperimentConfig(
    name="update_throughput",
    title="Update throughput",
    description="Live-index mutation cost: adds/sec, delta-fraction latency, compaction",
    runner="update_throughput",
    params={"sentence_count": 600, "delta_fractions": (0.0, 0.10, 0.50)},
    key_columns=("delta_fraction",),
    metrics={"total_matches": "exact", "total_matches_compacted": "exact"},
    timing_columns=(
        "adds_per_sec",
        "query_ms_delta",
        "compact_seconds",
        "query_ms_compacted",
    ),
))

register(ExperimentConfig(
    name="ablation_cover_selection",
    title="Ablation: cover construction",
    description="Query runtime of the root-split index under different decomposition policies",
    runner="ablation_cover_selection",
    params={"sentence_count": 1_200, "mss": 3},
    key_columns=("policy",),
    metrics={"total_matches": "exact", "avg_seconds": "lower"},
    timing_columns=("avg_seconds",),
    warmup=STEADY_STATE,
))

register(ExperimentConfig(
    name="ablation_storage",
    title="Ablation: B+Tree loading strategy",
    description="Building the index B+Tree by sorted bulk load vs one insert per key",
    runner="ablation_storage",
    params={"sentence_count": 300, "mss": 3},
    key_columns=("strategy",),
    metrics={"file_bytes": "lower", "height": "exact"},
    timing_columns=("seconds",),
))
