"""repro.serve: HTTP serving and load testing over the query services.

The package splits into four small modules:

``metrics``
    latency histograms with log-spaced buckets, quantile estimation, what
    the server counts and its Prometheus text rendering;
``framing``
    the HTTP/1.1 request parser over a connection's receive buffer, with
    every size limit, and the response encoder;
``server``
    the stdlib-only asyncio HTTP server (``/query``, ``/query/batch``,
    ``/stats``, ``/healthz``, ``/metrics``), one ``asyncio.BufferedProtocol``
    a connection with its read and write clocks, plus helpers for running
    it from synchronous code;
``loadgen``
    the closed- and open-loop load generators, one client under both,
    behind ``repro loadtest`` and the ``serve_http_throughput``,
    ``serve_overload`` and ``serve_mixed_rw`` bench experiments.
"""

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
    "QueryServer",
    "ServerThread",
    "open_server",
    "parse_base_url",
    "percentile_of_sorted",
    "render_families",
    "result_to_dict",
    "run_load",
]
