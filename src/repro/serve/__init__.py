"""repro.serve: HTTP serving and load testing over the query services.

The package splits into four small modules:

``metrics``
    latency histograms with log-spaced buckets, quantile estimation and
    Prometheus text rendering;
``batch``
    the micro-batcher that coalesces concurrent queries into ``run_many``;
``server``
    the stdlib-only asyncio HTTP server (``/query``, ``/query/batch``,
    ``/stats``, ``/healthz``, ``/metrics``) plus helpers for running it
    from synchronous code;
``loadgen``
    the closed-loop load generator behind ``repro loadtest`` and the
    ``serve_http_throughput`` bench experiment.
"""

from repro.serve.batch import MicroBatcher
from repro.serve.loadgen import LoadgenReport, parse_base_url, run_load
from repro.serve.metrics import (
    DEFAULT_BUCKETS,
    LatencyHistogram,
    percentile_of_sorted,
    render_families,
)
from repro.serve.server import (
    ENDPOINTS,
    QueryServer,
    ServerThread,
    open_server,
    result_to_dict,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "ENDPOINTS",
    "LatencyHistogram",
    "LoadgenReport",
    "MicroBatcher",
    "QueryServer",
    "ServerThread",
    "open_server",
    "parse_base_url",
    "percentile_of_sorted",
    "render_families",
    "result_to_dict",
    "run_load",
]
