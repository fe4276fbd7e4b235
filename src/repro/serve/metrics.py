"""Latency histograms, quantile estimation and Prometheus text rendering.

The serving layer measures request latency two ways:

:class:`LatencyHistogram`
    fixed log-spaced buckets, observed online by the HTTP server -- constant
    memory no matter how many requests arrive, exported verbatim in the
    Prometheus exposition format (``_bucket``/``_sum``/``_count`` series)
    plus derived p50/p95/p99 lines.  Quantiles from a bucketed histogram are
    *estimates*: linear interpolation inside the owning bucket, clamped to
    the observed min/max so a single sample reports itself exactly.

:func:`percentile_of_sorted`
    exact quantiles over raw samples, used by the closed-loop load generator
    (:mod:`repro.serve.loadgen`), which keeps every latency it measured.

Both live here so the bucket-boundary and tail-estimation behaviour is
tested in one place (``tests/serve/test_metrics.py``).

:class:`ServerMetrics` is what the HTTP server counts -- requests, errors
and latency per endpoint, sheds, timeouts, where query answers ran -- and
:data:`FAMILIES` the one table of what ``/metrics`` exports from it.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

#: Default latency buckets in seconds: a 1-2.5-5 ladder from 0.1 ms to 10 s.
#: Upper bounds, inclusive (Prometheus ``le`` semantics); values beyond the
#: last bound land in the implicit ``+Inf`` overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0,
)

#: The quantiles every latency report derives (p50 / p95 / p99).
REPORTED_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def percentile_of_sorted(sorted_values: Sequence[float], q: float) -> Optional[float]:
    """Exact q-quantile of pre-sorted samples, linearly interpolated.

    Returns ``None`` for an empty series.  ``q`` is a fraction in [0, 1];
    a single sample is every quantile of itself.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not sorted_values:
        return None
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return float(sorted_values[lower] * (1.0 - fraction) + sorted_values[upper] * fraction)


class LatencyHistogram:
    """An online histogram over fixed log-spaced upper bounds.

    ``observe`` is guarded by one short lock so the server's event loop and
    any scraping thread agree on the counters; contention is negligible next
    to the query work each observation measures.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        if any(bound <= 0 for bound in bounds):
            raise ValueError("bucket bounds must be positive")
        self.bounds = bounds
        #: Per-bucket (non-cumulative) counts; the last slot is ``+Inf``.
        self._counts: List[int] = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def observe(self, seconds: float) -> None:
        """Record one measurement (negative values clamp to zero)."""
        value = max(0.0, float(seconds))
        position = bisect_left(self.bounds, value)  # first bound >= value: le semantics
        with self._lock:
            self._counts[position] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values, in seconds."""
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Non-cumulative per-bucket counts (last entry is the overflow bucket)."""
        with self._lock:
            return list(self._counts)

    def cumulative_counts(self) -> List[int]:
        """Cumulative counts per bound, Prometheus ``le`` style (last is +Inf)."""
        cumulative: List[int] = []
        total = 0
        for count in self.bucket_counts():
            total += count
            cumulative.append(total)
        return cumulative

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimate the q-quantile from the buckets (``0.0`` when empty).

        Standard histogram interpolation: find the bucket holding the target
        rank and interpolate linearly between its bounds, then clamp to the
        observed min/max -- so a single observation is reported exactly and
        the overflow bucket never extrapolates beyond what was seen.  A
        zero-observation histogram reports 0.0 for every quantile, so the
        Prometheus exposition and ``/stats`` stay number-valued (never
        ``null``/``NaN``) for endpoints that have not been hit yet.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            seen_min, seen_max = self._min, self._max
        if total == 0:
            return 0.0
        assert seen_min is not None and seen_max is not None
        rank = q * total
        cumulative = 0
        lower = 0.0
        estimate = seen_max
        for position, count in enumerate(counts):
            upper = self.bounds[position] if position < len(self.bounds) else seen_max
            if count and cumulative + count >= rank:
                fraction = (rank - cumulative) / count if count else 0.0
                estimate = lower + (max(upper, lower) - lower) * fraction
                break
            cumulative += count
            lower = upper
        return min(max(estimate, seen_min), seen_max)

    def percentiles(self) -> Dict[str, float]:
        """The derived p50/p95/p99 estimates, in seconds (0.0 when empty)."""
        return {f"p{int(q * 100)}": self.quantile(q) for q in REPORTED_QUANTILES}


# ----------------------------------------------------------------------
# Prometheus text exposition (format version 0.0.4)
# ----------------------------------------------------------------------
def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in sorted(labels.items()))
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_line(
    name: str, value: float, labels: Optional[Dict[str, str]] = None
) -> str:
    """One ``name{labels} value`` sample line."""
    return f"{name}{_format_labels(labels or {})} {_format_number(float(value))}"


def render_histogram(
    name: str, histogram: LatencyHistogram, labels: Optional[Dict[str, str]] = None
) -> List[str]:
    """The ``_bucket`` / ``_sum`` / ``_count`` series of one histogram.

    Quantile estimates are exported alongside as ``<name>_quantile`` gauge
    lines (one per p50/p95/p99) -- Prometheus derives quantiles server-side
    with ``histogram_quantile``, but scrapers without PromQL (the load-test
    harness, humans with curl) read them directly.
    """
    labels = dict(labels or {})
    lines: List[str] = []
    cumulative = histogram.cumulative_counts()
    for bound, count in zip(list(histogram.bounds) + [float("inf")], cumulative):
        bucket_labels = dict(labels)
        bucket_labels["le"] = _format_number(bound)
        lines.append(prometheus_line(f"{name}_bucket", count, bucket_labels))
    lines.append(prometheus_line(f"{name}_sum", histogram.sum, labels))
    lines.append(prometheus_line(f"{name}_count", histogram.count, labels))
    for label, estimate in histogram.percentiles().items():
        quantile_labels = dict(labels)
        quantile_labels["quantile"] = f"0.{label[1:]}"
        lines.append(prometheus_line(f"{name}_quantile", estimate, quantile_labels))
    return lines


def render_families(families: Iterable[Tuple[str, str, str, List[str]]]) -> str:
    """Join (name, kind, help, sample-lines) families into one exposition body."""
    lines: List[str] = []
    for name, kind, help_text, samples in families:
        lines += (f"# HELP {name} {help_text}", f"# TYPE {name} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# What the HTTP server counts, and the families /metrics exports from it
# ----------------------------------------------------------------------
#: Reasons a request can be load-shed with a 503 (label values in /metrics).
SHED_REASONS = ("connections", "queue", "draining")

#: Kinds of timeout the server enforces (label values in /metrics).
TIMEOUT_KINDS = ("header", "body", "handler", "write")

#: Where a query answer ran -- the event loop (every result resident) or the
#: worker pool (label values in /metrics).
QUERY_PATHS = ("loop", "pool")


class EndpointMetrics:
    """Request/error counters and a latency histogram for one endpoint."""

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.latency = LatencyHistogram()

    def record(self, status: int, seconds: float) -> None:
        self.requests += 1
        if status >= 400:
            self.errors += 1
        self.latency.observe(seconds)


class ServerMetrics:
    """Per-endpoint metrics, hardening counters and the Prometheus renderer."""

    def __init__(self, endpoints: Sequence[str]) -> None:
        self.endpoints: Dict[str, EndpointMetrics] = {path: EndpointMetrics() for path in endpoints}
        self._unmatched = EndpointMetrics()  # 404s / bad routes, aggregated
        #: 503 load sheds by reason (connection cap / queue bound / draining).
        self.sheds: Dict[str, int] = {reason: 0 for reason in SHED_REASONS}
        #: Enforced timeouts by kind (header / body / handler / write).
        self.timeouts: Dict[str, int] = {kind: 0 for kind in TIMEOUT_KINDS}
        #: ``/query`` and ``/query/batch`` answers by where they ran.
        self.query_answers: Dict[str, int] = {path: 0 for path in QUERY_PATHS}
        #: Malformed request heads answered with a 4xx and a close.
        self.protocol_errors = 0
        #: Idle keep-alive connections reaped by the header timeout.
        self.idle_closed = 0
        #: High-water mark of concurrently open connections.
        self.connections_peak = 0

    def for_endpoint(self, path: str) -> EndpointMetrics:
        return self.endpoints.get(path, self._unmatched)

    def connection_opened(self, open_now: int) -> None:
        if open_now > self.connections_peak:
            self.connections_peak = open_now

    def by_endpoint(self, field: str) -> Dict[str, object]:
        """One attribute of every endpoint's metrics, ``other`` (unmatched
        routes) last.  Never-hit endpoints are there too: scrapers see every
        series -- all-zero buckets, 0.0 quantiles -- from the first scrape."""
        labelled = {**self.endpoints, "other": self._unmatched}
        return {path: getattr(endpoint, field) for path, endpoint in labelled.items()}

    def as_dict(self) -> Dict[str, object]:
        """The counters as they appear in the ``server`` block of ``/stats``."""
        return {
            "sheds": dict(self.sheds),
            "timeouts": dict(self.timeouts),
            "query_answers": dict(self.query_answers),
            "protocol_errors": self.protocol_errors,
            "idle_closed": self.idle_closed,
            "endpoints": {
                path: {
                    "requests": endpoint.requests,
                    "errors": endpoint.errors,
                    "latency": endpoint.latency.percentiles(),
                }
                for path, endpoint in self.endpoints.items()
            },
        }

    def render(
        self, stats: Mapping[str, object], draining: bool = False, connections_open: int = 0
    ) -> str:
        """The full exposition body: server and service families.

        *stats* is ``service.stats().as_dict()`` -- one shape for every flavor.
        """
        scrape = _Scrape(self, stats, int(draining), connections_open)
        families = []
        for name, kind, help_text, label, read in FAMILIES:
            value = read(scrape)
            if kind == "histogram":
                samples = [
                    line
                    for key, histogram in value.items()
                    for line in render_histogram(name, histogram, {label: key})
                ]
            elif label is None:
                samples = [prometheus_line(name, value)]
            else:
                samples = [prometheus_line(name, count, {label: key}) for key, count in value.items()]
            families.append((name, kind, help_text, samples))
        return render_families(families)


class _Scrape(NamedTuple):
    """What one ``/metrics`` render reads its samples from."""

    server: ServerMetrics
    service: Mapping[str, object]
    draining: int
    connections_open: int

    def per_cache(self, field: str) -> Dict[str, float]:
        return {name: counters[field] for name, counters in self.service["caches"].items()}


#: Every family of the exposition, in order: name, kind, help text, the label
#: its samples carry (``None``: one unlabelled sample) and how to read them
#: off a scrape (a number, or a mapping label value -> number / histogram).
FAMILIES: Tuple[Tuple[str, str, str, Optional[str], Callable[[_Scrape], object]], ...] = (
    ("repro_http_requests_total", "counter", "HTTP requests received, by endpoint.",
     "endpoint", lambda x: x.server.by_endpoint("requests")),
    ("repro_http_errors_total", "counter", "HTTP responses with a 4xx/5xx status, by endpoint.",
     "endpoint", lambda x: x.server.by_endpoint("errors")),
    ("repro_http_request_duration_seconds", "histogram",
     "Request latency by endpoint (log-spaced buckets; _quantile lines are "
     "server-side p50/p95/p99 estimates).",
     "endpoint", lambda x: x.server.by_endpoint("latency")),
    ("repro_http_sheds_total", "counter", "Requests load-shed with a 503, by reason.",
     "reason", lambda x: x.server.sheds),
    ("repro_http_timeouts_total", "counter",
     "Timeouts enforced against slow clients or slow handlers, by kind.",
     "kind", lambda x: x.server.timeouts),
    ("repro_http_query_answers_total", "counter",
     "/query and /query/batch answers by where they ran: the event loop (every "
     "result resident, no hand-off) or the worker pool.",
     "path", lambda x: x.server.query_answers),
    ("repro_http_protocol_errors_total", "counter",
     "Malformed request heads answered with a 4xx and a closed connection.",
     None, lambda x: x.server.protocol_errors),
    ("repro_http_idle_closed_total", "counter",
     "Idle keep-alive connections reaped by the header timeout.",
     None, lambda x: x.server.idle_closed),
    ("repro_http_connections_open", "gauge", "Connections currently open.",
     None, lambda x: x.connections_open),
    ("repro_http_connections_peak", "gauge", "High-water mark of concurrently open connections.",
     None, lambda x: x.server.connections_peak),
    ("repro_server_draining", "gauge", "1 while a graceful drain is in progress, 0 otherwise.",
     None, lambda x: x.draining),
    ("repro_queries_total", "counter", "Queries evaluated by the service (batch members included).",
     None, lambda x: x.service["queries"]),
    ("repro_batches_total", "counter", "run_many batches executed by the service.",
     None, lambda x: x.service["batches"]),
    ("repro_cache_lookups_total", "counter", "Cache lookups, by cache layer.",
     "cache", lambda x: x.per_cache("lookups")),
    ("repro_cache_hits_total", "counter", "Cache hits, by cache layer.",
     "cache", lambda x: x.per_cache("hits")),
    ("repro_cache_hit_rate", "gauge", "Hit rate per cache layer (0 when never probed).",
     "cache", lambda x: x.per_cache("hit_rate")),
    ("repro_index_probes_total", "counter",
     "Index lookups (served from the postings cache or the tree).",
     None, lambda x: x.service["probes"]["gets"]),
    ("repro_index_tree_descents_total", "counter",
     "Index lookups that went to an actual B+Tree descent.",
     None, lambda x: x.service["probes"]["tree_descents"]),
    ("repro_index_node_decodes_total", "counter",
     "B+Tree node images parsed from raw pages (0 per descent when warm).",
     None, lambda x: x.service["probes"]["node_decodes"]),
)
