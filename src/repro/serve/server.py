"""A stdlib-only asyncio HTTP front end over a query service, whatever it serves.

``QueryServer`` speaks just enough HTTP/1.1 (request line, headers,
``Content-Length`` bodies, keep-alive) over ``asyncio`` streams to serve
five JSON/text endpoints:

``POST /query``
    ``{"query": "NP(DT)(NN)"}`` -> one result (matches per tree, stats);
``POST /query/batch``
    ``{"queries": [...]}`` -> results in input order.  Queries are
    micro-batched through :class:`~repro.serve.batch.MicroBatcher`: every
    query pending within one flush window -- across concurrent requests --
    shares a single ``run_many`` call;
``GET /stats``
    the merged service-stats shape (identical keys for plain / sharded /
    live services) plus server-side counters;
``GET /healthz``
    liveness: flavor, index path, uptime -- 503 with ``"draining"`` once a
    graceful drain has started;
``GET /metrics``
    Prometheus text: per-endpoint request/error counters and latency
    histograms (log-spaced buckets + derived p50/p95/p99), cache hit
    rates, service and batcher counters, shed/timeout/drain telemetry.

Query execution is synchronous, CPU-bound work, so handlers push it onto a
thread pool (the services are thread-safe by design) and the event loop
stays free to accept and batch further requests.  The one exception is a
``/query`` whose result is already resident in a real
:class:`~repro.service.service.QueryService`'s result cache: that costs
microseconds, so it is answered on the loop, without the hand-off (and
without a queue slot).  The server owns nothing:
pass an open service, close it yourself -- or use :func:`open_server` /
``repro serve`` which open and close the service around the server.

Hostile-traffic hardening
-------------------------
The server assumes every client may be slow, dead or malicious:

* the whole request head (request line + headers) must arrive within
  ``header_timeout`` seconds or the connection is answered 408 and closed
  (a client that connects and sends nothing is reaped on the same clock;
  an *idle keep-alive* connection -- one that already completed a request
  -- is closed silently instead, like any production server);
* the body must arrive within its own ``header_timeout`` budget (408);
  each of these clocks is one timer, armed only when a read actually has
  to wait -- a request that arrived whole costs none;
* handler work is bounded by ``request_timeout`` (504; the executor
  thread finishes in the background -- threads cannot be killed);
* response writes are bounded by ``write_timeout``: a client that stops
  reading has its connection aborted once ``writer.drain()`` stalls;
* one request or header line may be 64 KiB at most, the header block
  ``max_header_bytes`` and 256 headers (431);
* a connection with pipelined requests buffered yields the loop between
  them, so one client's backlog never stalls the others (or the timers);
* at most ``max_connections`` connections are served; excess connections
  receive an immediate 503 with ``Retry-After`` and are closed;
* at most ``max_queue`` queries may be queued or running on the executor;
  further queries are load-shed with 503 + ``Retry-After`` instead of
  queuing unboundedly (bounded queue => bounded latency for everyone
  accepted);
* oversized or malformed request heads (bad request line, header bytes
  over ``max_header_bytes``, a body over ``max_body_bytes``, chunked
  transfer encoding, ``Content-Length`` headers that disagree) get a clean
  4xx JSON error, never a traceback;
* :meth:`QueryServer.drain` is the graceful shutdown: stop accepting,
  let in-flight requests finish (time-boxed by ``drain_timeout``), flush
  the micro-batcher, shut the pool down.  ``repro serve`` wires it to
  SIGTERM/SIGINT and exits 0.

Every shed, timeout and drain is counted and exposed in ``/metrics``
(``repro_http_sheds_total``, ``repro_http_timeouts_total``,
``repro_server_draining``, ...) and in the ``server`` block of ``/stats``.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import json
import logging
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs

from repro import obs
from repro.exec.executor import QueryResult
from repro.obs.sinks import JsonlSink
from repro.serve.batch import BatcherClosed, MicroBatcher
from repro.serve.metrics import LatencyHistogram, prometheus_line, render_families, render_histogram
from repro.service.service import PreparedQuery, QueryService

#: Routes the server knows, in display order.
ENDPOINTS = ("/query", "/query/batch", "/stats", "/healthz", "/metrics", "/debug/trace")

#: Reasons a request can be load-shed with a 503 (label values in /metrics).
SHED_REASONS = ("connections", "queue", "draining")

#: Kinds of timeout the server enforces (label values in /metrics).
TIMEOUT_KINDS = ("header", "body", "handler", "write")

#: Where a ``/query`` answer ran -- the event loop (a resident result) or the
#: worker pool (label values in /metrics).
QUERY_PATHS = ("loop", "pool")

#: The longest request line or header line accepted.
_MAX_LINE = 64 * 1024

#: Bytes taken from the stream per read.
_READ_CHUNK = 64 * 1024

_LOG = logging.getLogger("repro.serve")

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _header_safe(value: str) -> str:
    """A client-supplied id made safe to echo in a response header."""
    if not (value.isascii() and value.isprintable()):  # minted ids never are
        value = "".join(ch for ch in value if 32 <= ord(ch) < 127)
    return value[:128]


def result_to_dict(result: QueryResult) -> Dict[str, object]:
    """The JSON form of one :class:`QueryResult` (tids are string keys)."""
    stats = result.stats
    return {
        "total_matches": result.total_matches,
        "matched_tids": result.matched_tids,
        "matches_per_tree": {str(tid): count for tid, count in sorted(result.matches_per_tree.items())},
        "stats": {
            "coding": stats.coding,
            "strategy": stats.strategy,
            "cover_size": stats.cover_size,
            "join_count": stats.join_count,
            "postings_fetched": stats.postings_fetched,
            "candidates_filtered": stats.candidates_filtered,
            "elapsed_seconds": stats.elapsed_seconds,
        },
    }


class BadRequest(ValueError):
    """A client error the handler converts into a 400 JSON response."""


class ProtocolError(Exception):
    """A malformed or abusive request head, answered with a 4xx and a close.

    Raised by the request reader before any handler runs; the connection
    loop sends the JSON error and drops the connection (a peer that cannot
    frame a request cannot be trusted to frame the next one either).
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class _IdleTimeout(Exception):
    """An idle keep-alive connection hit the header timeout: close silently."""


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

    def __init__(self) -> None:
        self.endpoints: Dict[str, EndpointMetrics] = {path: EndpointMetrics() for path in ENDPOINTS}
        self._unmatched = EndpointMetrics()  # 404s / bad routes, aggregated
        #: 503 load sheds by reason (connection cap / queue bound / draining).
        self.sheds: Dict[str, int] = {reason: 0 for reason in SHED_REASONS}
        #: Enforced timeouts by kind (header / body / handler / write).
        self.timeouts: Dict[str, int] = {kind: 0 for kind in TIMEOUT_KINDS}
        #: ``/query`` answers by where they ran (event loop / worker pool).
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

    # ------------------------------------------------------------------
    def render(
        self,
        service: QueryService,
        batcher: Optional[MicroBatcher],
        draining: bool = False,
        connections_open: int = 0,
    ) -> str:
        """The full exposition body: server, batcher and service families."""
        stats = service.stats().as_dict()  # one shape for every flavor
        request_lines: List[str] = []
        error_lines: List[str] = []
        latency_lines: List[str] = []
        labelled = list(self.endpoints.items()) + [("other", self._unmatched)]
        for path, endpoint in labelled:
            labels = {"endpoint": path}
            request_lines.append(prometheus_line("repro_http_requests_total", endpoint.requests, labels))
            error_lines.append(prometheus_line("repro_http_errors_total", endpoint.errors, labels))
            # Never-hit endpoints render too: all-zero buckets and 0.0
            # quantiles, so scrapers see every series from the first scrape.
            latency_lines.extend(
                render_histogram("repro_http_request_duration_seconds", endpoint.latency, labels)
            )

        caches = stats["caches"]  # type: ignore[index]
        lookup_lines: List[str] = []
        hit_lines: List[str] = []
        hit_rate_lines: List[str] = []
        for name, counters in caches.items():  # type: ignore[union-attr]
            labels = {"cache": name}
            lookup_lines.append(prometheus_line("repro_cache_lookups_total", counters["lookups"], labels))
            hit_lines.append(prometheus_line("repro_cache_hits_total", counters["hits"], labels))
            hit_rate_lines.append(prometheus_line("repro_cache_hit_rate", counters["hit_rate"], labels))

        probes = stats["probes"]  # type: ignore[index]
        families = [
            (
                "repro_http_requests_total", "counter",
                "HTTP requests received, by endpoint.", request_lines,
            ),
            (
                "repro_http_errors_total", "counter",
                "HTTP responses with a 4xx/5xx status, by endpoint.", error_lines,
            ),
            (
                "repro_http_request_duration_seconds", "histogram",
                "Request latency by endpoint (log-spaced buckets; _quantile lines are "
                "server-side p50/p95/p99 estimates).", latency_lines,
            ),
            (
                "repro_http_sheds_total", "counter",
                "Requests load-shed with a 503, by reason.",
                [
                    prometheus_line("repro_http_sheds_total", count, {"reason": reason})
                    for reason, count in self.sheds.items()
                ],
            ),
            (
                "repro_http_timeouts_total", "counter",
                "Timeouts enforced against slow clients or slow handlers, by kind.",
                [
                    prometheus_line("repro_http_timeouts_total", count, {"kind": kind})
                    for kind, count in self.timeouts.items()
                ],
            ),
            (
                "repro_http_query_answers_total", "counter",
                "/query answers by where they ran: the event loop (resident result, "
                "no hand-off) or the worker pool.",
                [
                    prometheus_line("repro_http_query_answers_total", count, {"path": where})
                    for where, count in self.query_answers.items()
                ],
            ),
            (
                "repro_http_protocol_errors_total", "counter",
                "Malformed request heads answered with a 4xx and a closed connection.",
                [prometheus_line("repro_http_protocol_errors_total", self.protocol_errors)],
            ),
            (
                "repro_http_idle_closed_total", "counter",
                "Idle keep-alive connections reaped by the header timeout.",
                [prometheus_line("repro_http_idle_closed_total", self.idle_closed)],
            ),
            (
                "repro_http_connections_open", "gauge",
                "Connections currently open.",
                [prometheus_line("repro_http_connections_open", connections_open)],
            ),
            (
                "repro_http_connections_peak", "gauge",
                "High-water mark of concurrently open connections.",
                [prometheus_line("repro_http_connections_peak", self.connections_peak)],
            ),
            (
                "repro_server_draining", "gauge",
                "1 while a graceful drain is in progress, 0 otherwise.",
                [prometheus_line("repro_server_draining", 1 if draining else 0)],
            ),
            (
                "repro_queries_total", "counter",
                "Queries evaluated by the service (batch members included).",
                [prometheus_line("repro_queries_total", stats["queries"])],  # type: ignore[arg-type]
            ),
            (
                "repro_batches_total", "counter",
                "run_many batches executed by the service.",
                [prometheus_line("repro_batches_total", stats["batches"])],  # type: ignore[arg-type]
            ),
            (
                "repro_cache_lookups_total", "counter",
                "Cache lookups, by cache layer.", lookup_lines,
            ),
            (
                "repro_cache_hits_total", "counter",
                "Cache hits, by cache layer.", hit_lines,
            ),
            (
                "repro_cache_hit_rate", "gauge",
                "Hit rate per cache layer (0 when never probed).", hit_rate_lines,
            ),
            (
                "repro_index_probes_total", "counter",
                "Index lookups (served from the postings cache or the tree).",
                [prometheus_line("repro_index_probes_total", probes["gets"])],  # type: ignore[index]
            ),
            (
                "repro_index_tree_descents_total", "counter",
                "Index lookups that went to an actual B+Tree descent.",
                [prometheus_line("repro_index_tree_descents_total", probes["tree_descents"])],  # type: ignore[index]
            ),
            (
                "repro_index_node_decodes_total", "counter",
                "B+Tree node images parsed from raw pages (0 per descent when warm).",
                [prometheus_line("repro_index_node_decodes_total", probes["node_decodes"])],  # type: ignore[index]
            ),
        ]
        if batcher is not None:
            families.append((
                "repro_batcher_flushes_total", "counter",
                "Micro-batch flushes executed.",
                [prometheus_line("repro_batcher_flushes_total", batcher.flushes)],
            ))
            families.append((
                "repro_batcher_queries_total", "counter",
                "Queries carried by micro-batch flushes.",
                [prometheus_line("repro_batcher_queries_total", batcher.queries_batched)],
            ))
        return render_families(families)


class _Expired(Exception):
    """A :func:`_deadline` ran out (never raised by the work it guards)."""


@contextlib.contextmanager
def _deadline(seconds: float) -> Iterator[None]:
    """Bound the awaits of a ``with`` block: :class:`_Expired` after *seconds*.

    One timer handle and no Task (``asyncio.timeout`` for 3.10): the timer
    cancels the current task -- which, when it fires, can only be suspended
    inside the block -- and the cancellation leaves the block as
    :class:`_Expired`.  Anyone else's cancellation passes through.  Enter it
    only around an await that is about to block; arming the timer is the cost.
    """
    task = asyncio.current_task()
    expired = False

    def expire() -> None:
        nonlocal expired
        expired = True
        task.cancel()

    handle = asyncio.get_running_loop().call_later(seconds, expire)
    try:
        yield
    except asyncio.CancelledError:
        if not expired:
            raise
        if hasattr(task, "uncancel"):  # 3.11+: retract our own cancel request
            task.uncancel()
        raise _Expired() from None
    finally:
        handle.cancel()


def _head_end(buffer: bytearray, start: int) -> int:
    """The index just past the blank line that ends the request head in
    *buffer* (searched from *start*), or -1.  Lines end in CRLF or bare LF."""
    crlf = buffer.find(b"\n\r\n", start)
    lf = buffer.find(b"\n\n", start)
    if crlf < 0 or 0 <= lf < crlf:
        return lf + 2 if lf >= 0 else -1
    return crlf + 3


class QueryServer:
    """The asyncio HTTP server over one open query service."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        flush_window: float = 0.002,
        max_batch: int = 64,
        max_workers: int = 4,
        index_path: Optional[str] = None,
        trace: bool = False,
        trace_log: Optional[str] = None,
        slow_ms: Optional[float] = None,
        trace_buffer: int = 256,
        header_timeout: float = 10.0,
        request_timeout: float = 30.0,
        write_timeout: float = 15.0,
        max_connections: int = 256,
        max_queue: int = 128,
        drain_timeout: float = 10.0,
        max_header_bytes: int = 32 * 1024,
        max_body_bytes: int = 8 * 1024 * 1024,
        write_buffer: int = 64 * 1024,
    ):
        if not 0 <= port <= 65535:
            raise ValueError(f"port must be in 0..65535, got {port}")
        if max_workers < 1:
            raise ValueError(f"max workers must be >= 1, got {max_workers}")
        for name, value in (
            ("header_timeout", header_timeout),
            ("request_timeout", request_timeout),
            ("write_timeout", write_timeout),
            ("drain_timeout", drain_timeout),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name, value in (
            ("max_connections", max_connections),
            ("max_queue", max_queue),
            ("max_header_bytes", max_header_bytes),
            ("max_body_bytes", max_body_bytes),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.service = service
        self.host = host
        self.port = port  # 0 = ephemeral; replaced by the bound port on start()
        self.flush_window = flush_window
        self.max_batch = max_batch
        self.max_workers = max_workers
        self.index_path = index_path
        self.header_timeout = header_timeout
        self.request_timeout = request_timeout
        self.write_timeout = write_timeout
        self.max_connections = max_connections
        self.max_queue = max_queue
        self.drain_timeout = drain_timeout
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        self.write_buffer = write_buffer
        # Any tracing knob turns tracing on for the server's lifetime.
        self.trace = bool(trace or trace_log or slow_ms is not None)
        self.trace_log = trace_log
        self.slow_ms = slow_ms
        self.trace_buffer = trace_buffer
        self.metrics = ServerMetrics()
        #: The wire name of what is served: ``plain`` / ``sharded`` / ``live``.
        self.flavor = service.index.flavor
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._batcher: Optional[MicroBatcher] = None
        self._connections: set = set()
        #: Connection tasks currently between "request read" and "response
        #: written"; drain() lets these finish, idle connections it cancels.
        self._busy: set = set()
        self._inflight_queries = 0
        self._draining = False
        self._started_at = 0.0
        self._census: Tuple[object, Dict[str, object]] = (None, {})  # index version it was taken at
        self._trace_sink: Optional[JsonlSink] = None
        self._owns_tracer = False
        self._server_errors = 0

    @property
    def url(self) -> str:
        """The served base URL (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        """True once a graceful drain has started."""
        return self._draining

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "QueryServer":
        """Bind the listening socket and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server is already running")
        if self.trace and not obs.enabled():
            sinks = []
            if self.trace_log:
                self._trace_sink = JsonlSink(self.trace_log)
                sinks.append(self._trace_sink)
            obs.enable(
                obs.Tracer(sinks=sinks, slow_ms=self.slow_ms, capacity=self.trace_buffer)
            )
            self._owns_tracer = True
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-serve"
        )
        self._batcher = MicroBatcher(
            self.service, self._executor, flush_window=self.flush_window, max_batch=self.max_batch
        )
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        return self

    async def stop(self) -> None:
        """Abrupt shutdown: stop accepting, cancel every connection, drain
        pending batches, shut the pool down.  Safe after :meth:`drain`."""
        if self._server is None and self._executor is None:
            return  # already stopped (or fully drained)
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # A connection accepted in the close window has a handler task that
        # may not have run its first step (and registered itself) yet; one
        # tick lets every such task join the set before the snapshot below,
        # and the loop re-checks in case one still slips through.
        await asyncio.sleep(0)
        # Idle keep-alive connections sit in their read forever; cancel them
        # so no task outlives the loop.
        while self._connections:
            for task in list(self._connections):
                task.cancel()
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        await self._shutdown_workers()

    async def drain(self) -> Dict[str, object]:
        """Graceful shutdown: stop accepting, finish in-flight, then stop.

        The sequence (surfaced in ``/healthz`` as ``draining`` from the
        first step on):

        1. close the listening socket -- new connections are refused;
        2. cancel *idle* connections (blocked waiting for a request line);
        3. wait up to ``drain_timeout`` seconds for busy connections to
           finish writing their current response (which carries
           ``Connection: close``), then cancel any stragglers;
        4. flush the micro-batcher, shut the executor down.

        Returns a summary dict (``drain_seconds``, ``forced_connections``).
        Idempotent: a second call returns immediately.
        """
        if self._server is None and self._executor is None:
            return {"drain_seconds": 0.0, "forced_connections": 0, "completed": True}
        started = time.perf_counter()
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Handlers accepted in the close window register themselves on their
        # first step; give them that step so the snapshots below see them.
        await asyncio.sleep(0)
        # Idle connections have nothing in flight: reap them now so the
        # drain clock is spent on connections doing real work.
        for task in list(self._connections - self._busy):
            task.cancel()
        forced = 0
        pending_connections = list(self._connections)
        if pending_connections:
            done, pending = await asyncio.wait(pending_connections, timeout=self.drain_timeout)
            forced = len(pending)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        # Anything that still slipped past the snapshot (it cannot do real
        # work: the batcher and executor are about to go away) is cancelled
        # rather than abandoned to outlive the loop.
        while self._connections:
            for task in list(self._connections):
                task.cancel()
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        await self._shutdown_workers()
        return {
            "drain_seconds": time.perf_counter() - started,
            "forced_connections": forced,
            "completed": True,
        }

    async def _shutdown_workers(self) -> None:
        """The shared tail of stop()/drain(): batcher, executor, tracer."""
        if self._batcher is not None:
            await self._batcher.drain()
            self._batcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._owns_tracer:
            obs.disable()
            self._owns_tracer = False
        if self._trace_sink is not None:
            self._trace_sink.close()
            self._trace_sink = None

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self.metrics.connection_opened(len(self._connections))
        # A small write buffer makes writer.drain() apply backpressure
        # early, so the write timeout actually observes a stalled client
        # instead of the transport buffering megabytes silently.
        writer.transport.set_write_buffer_limits(high=self.write_buffer)
        buffer = bytearray()  # received, not yet consumed by a request
        first = True
        try:
            if len(self._connections) > self.max_connections:
                self.metrics.sheds["connections"] += 1
                await self._write_response(
                    writer, 503, _JSON,
                    json.dumps({
                        "error": f"connection limit reached (max_connections={self.max_connections})"
                    }).encode("utf-8"),
                    keep_alive=False,
                )
                return
            if self._draining:
                self.metrics.sheds["draining"] += 1
                await self._write_response(
                    writer, 503, _JSON,
                    json.dumps({"error": "server is draining"}).encode("utf-8"),
                    keep_alive=False,
                )
                return
            while True:
                try:
                    request = await self._read_request(reader, buffer, first)
                except ProtocolError as error:
                    self.metrics.protocol_errors += 1
                    self.metrics.for_endpoint("/_protocol").record(error.status, 0.0)
                    await self._write_response(
                        writer, error.status, _JSON,
                        json.dumps({"error": error.message}).encode("utf-8"),
                        keep_alive=False,
                    )
                    break
                except _IdleTimeout:
                    self.metrics.idle_closed += 1
                    break
                if request is None:
                    break
                first = False
                method, path, keep_alive, body, query_string, client_rid = request
                # Request ids always flow, traced or not: take the client's
                # X-Request-ID, mint one otherwise, echo it on the response.
                request_id = client_rid or obs.new_request_id()
                started = time.perf_counter()
                if task is not None:
                    self._busy.add(task)
                try:
                    status, content_type, payload = await self._serve_request(
                        method, path, body, query_string, request_id
                    )
                    self.metrics.for_endpoint(path).record(status, time.perf_counter() - started)
                    # A drain that started while this request ran still gets
                    # its response out, marked Connection: close.
                    keep_alive = keep_alive and not self._draining
                    written = await self._write_response(
                        writer, status, content_type, payload, keep_alive, request_id
                    )
                finally:
                    if task is not None:
                        self._busy.discard(task)
                # Re-check _draining: it may have flipped while the write
                # above was suspended (after keep_alive was computed).  A
                # handler that loops back into the read here would have been
                # busy at drain's idle-reap snapshot -- never cancelled, and
                # "forced" at the deadline despite sitting idle.
                if not written or not keep_alive or self._draining:
                    break
                if buffer:
                    # A pipelined request is already here, and serving it may
                    # never suspend (parsed from the buffer, answered on the
                    # loop, written to an empty transport).  Yield once per
                    # request so one client's pipeline cannot hold the loop
                    # -- and every other connection, accept and timer -- for
                    # as long as it has requests queued.
                    await asyncio.sleep(0)
        except asyncio.CancelledError:
            # stop()/drain() reaped this connection (idle, or past the drain
            # deadline).  Swallow the cancellation and fall through to the
            # close below: on 3.11 the streams done-callback calls
            # task.exception() without a cancelled() guard, so a task that
            # ends *cancelled* dumps a spurious traceback into the loop's
            # exception handler.
            pass
        except ConnectionError:
            pass  # client went away; drop the connection
        finally:
            if task is not None:
                self._busy.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform dependent
                pass
            except asyncio.CancelledError:
                # stop()/drain() cancelled us mid-close; the transport is
                # already closing, so completing normally is both safe and
                # what keeps the task gatherable.
                pass
            # Deregister only once the close is complete: a handler that
            # leaves the set while still awaiting wait_closed is invisible
            # to stop()'s gather and gets destroyed pending when the loop
            # shuts down (seen as "Task was destroyed but it is pending"
            # under mass client disconnects racing server stop).
            if task is not None:
                self._connections.discard(task)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        payload: bytes,
        keep_alive: bool,
        request_id: Optional[str] = None,
    ) -> bool:
        """Write one response under the write timeout.

        Returns False (after aborting the connection) when the client
        stopped reading for longer than ``write_timeout`` -- a never-reading
        sink must not pin the connection task forever.
        """
        transport = writer.transport
        writer.write(
            self._encode_response(status, content_type, payload, keep_alive, request_id)
        )
        if not transport.get_write_buffer_size():
            await writer.drain()  # all of it reached the socket: cannot block
            return True
        try:
            with _deadline(self.write_timeout):
                await writer.drain()
        except _Expired:
            self.metrics.timeouts["write"] += 1
            transport.abort()
            return False
        return True

    async def _read_request(
        self, reader: asyncio.StreamReader, buffer: bytearray, first: bool
    ) -> Optional[Tuple[str, str, bool, bytes, str, Optional[str]]]:
        """Parse one request head + body under the read timeouts and limits.

        *buffer* holds what the connection has received and not yet
        consumed; the request is parsed out of it in one step and the
        stream is read only when it runs short (a pipelined request is
        already there).  Each such wait is guarded by one timer: the whole
        head shares a ``header_timeout`` budget, the body gets its own.

        Returns ``(method, path, keep-alive, body, query string, client
        X-Request-ID or None)``; ``None`` on a cleanly closed connection.
        Raises :class:`ProtocolError` for malformed/oversized heads (the
        caller responds 4xx and closes) and :class:`_IdleTimeout` when an
        idle keep-alive connection times out between requests.
        """
        end = _head_end(buffer, 0)
        if end < 0:
            try:
                with _deadline(self.header_timeout):
                    while end < 0:
                        # The most a valid head holds, line ends included.
                        if len(buffer) > _MAX_LINE + self.max_header_bytes + 3:
                            raise ProtocolError(431, "request head exceeds the size limits")
                        scanned = max(0, len(buffer) - 2)
                        chunk = await reader.read(_READ_CHUNK)
                        if not chunk:
                            return None  # EOF before a complete head: client went away
                        buffer += chunk
                        end = _head_end(buffer, scanned)
            except _Expired:
                if not buffer and not first:
                    raise _IdleTimeout() from None
                # Connect-and-say-nothing, or a slow-loris head dribbling in
                # slower than the budget.
                self.metrics.timeouts["header"] += 1
                doing = "reading request headers" if buffer else "waiting for a request"
                raise ProtocolError(
                    408, f"timed out {doing} (header timeout {self.header_timeout:g}s)"
                ) from None
        lines = buffer[:end].decode("latin-1").split("\n")
        del lines[-2:]  # the blank line and what follows its LF
        request_line = lines[0]
        if not request_line.strip():
            return None
        if max(map(len, lines)) > _MAX_LINE:
            raise ProtocolError(431, "request or header line exceeds the line length limit")
        parts = request_line.split()
        if len(parts) != 3:
            raise ProtocolError(400, "malformed request line")
        method, target, version = parts
        # Header lines with their line ends; the blank line is not counted.
        header_bytes = sum(map(len, lines)) + len(lines) - len(request_line) - 1
        if header_bytes > self.max_header_bytes or len(lines) > 257:
            raise ProtocolError(
                431,
                f"request headers exceed the limit ({self.max_header_bytes} bytes)",
            )
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                # Two framings of one request: whichever a proxy in front
                # picked, we might pick the other (request smuggling).
                raise ProtocolError(400, "conflicting Content-Length headers")
            headers[name] = value
        if "transfer-encoding" in headers:
            raise ProtocolError(
                400, "Transfer-Encoding is not supported; send a Content-Length body"
            )
        raw_length = headers.get("content-length", "0")
        if not raw_length.isdigit():  # also rejects signs, spaces and '1_0'
            raise ProtocolError(400, f"invalid Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > self.max_body_bytes:
            raise ProtocolError(
                413,
                f"request body of {length} bytes exceeds the limit "
                f"({self.max_body_bytes} bytes)",
            )
        need = end + length
        if len(buffer) < need:
            try:
                with _deadline(self.header_timeout):
                    while len(buffer) < need:
                        chunk = await reader.read(_READ_CHUNK)
                        if not chunk:
                            return None  # EOF mid-body
                        buffer += chunk
            except _Expired:
                self.metrics.timeouts["body"] += 1
                raise ProtocolError(
                    408,
                    f"timed out reading the request body (timeout "
                    f"{self.header_timeout:g}s)",
                ) from None
        body = bytes(buffer[end:need])
        del buffer[:need]
        path, _, query_string = target.partition("?")
        keep_alive = version != "HTTP/1.0" and headers.get("connection", "").lower() != "close"
        client_rid = headers.get("x-request-id") or None
        return method.upper(), path, keep_alive, body, query_string, client_rid

    def _encode_response(
        self,
        status: int,
        content_type: str,
        payload: bytes,
        keep_alive: bool,
        request_id: Optional[str] = None,
    ) -> bytes:
        reason = _STATUS_REASONS.get(status, "Unknown")
        request_id_header = (
            f"X-Request-ID: {_header_safe(request_id)}\r\n" if request_id else ""
        )
        # Every load-shedding 503 invites the client back: shedding is about
        # bounding queues, not turning traffic away for good.
        retry_header = "Retry-After: 1\r\n" if status == 503 else ""
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{request_id_header}"
            f"{retry_header}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        return head.encode("latin-1") + payload

    # ------------------------------------------------------------------
    # Routing and handlers
    # ------------------------------------------------------------------
    async def _serve_request(
        self, method: str, path: str, body: bytes, query_string: str, request_id: str
    ) -> Tuple[int, str, bytes]:
        """Dispatch one request, under a traced root span when tracing is on."""
        if not obs.enabled():
            return await self._dispatch(method, path, body, query_string, request_id)
        token = obs.set_request_id(request_id)
        try:
            with obs.trace("http_request", method=method, path=path) as span:
                status, content_type, payload = await self._dispatch(
                    method, path, body, query_string, request_id
                )
                span.set(status=status)
                return status, content_type, payload
        finally:
            obs.reset_request_id(token)

    async def _dispatch(
        self, method: str, path: str, body: bytes, query_string: str, request_id: str
    ) -> Tuple[int, str, bytes]:
        try:
            if path == "/query":
                if method != "POST":
                    return self._json_error(405, "POST a JSON body to /query")
                return await self._handle_query(body)
            if path == "/query/batch":
                if method != "POST":
                    return self._json_error(405, "POST a JSON body to /query/batch")
                return await self._handle_batch(body, request_id)
            if path == "/stats":
                if method != "GET":
                    return self._json_error(405, "/stats is GET-only")
                return self._handle_stats()
            if path == "/healthz":
                if method != "GET":
                    return self._json_error(405, "/healthz is GET-only")
                return self._handle_healthz()
            if path == "/metrics":
                if method != "GET":
                    return self._json_error(405, "/metrics is GET-only")
                return self._handle_metrics()
            if path == "/debug/trace":
                if method != "GET":
                    return self._json_error(405, "/debug/trace is GET-only")
                return self._handle_debug_trace(query_string)
            return self._json_error(404, f"unknown path {path!r} (endpoints: {', '.join(ENDPOINTS)})")
        except BadRequest as error:
            return self._json_error(400, str(error))
        except _Expired:
            # The handler timeout around pool work.  The executor thread
            # finishes its query in the background (threads cannot be
            # interrupted); the bounded queue keeps such zombies from
            # accumulating without limit.
            self.metrics.timeouts["handler"] += 1
            return self._json_error(
                504, f"request timed out after {self.request_timeout:g}s of processing"
            )
        except BatcherClosed:
            self.metrics.sheds["draining"] += 1
            return self._json_error(503, "server is draining; retry against a live replica")
        except asyncio.CancelledError:
            raise  # the drain cancellation, not a bug
        except Exception as error:  # noqa: BLE001 - the server must not die on a handler bug
            # The traceback goes to the structured log only; the response
            # body stays generic so internals never leak to clients.
            self._log_server_error(path, request_id, error)
            return self._json_error(500, "internal server error")

    def _json_error(self, status: int, message: str) -> Tuple[int, str, bytes]:
        return status, _JSON, json.dumps({"error": message}).encode("utf-8")

    def _json_ok(self, payload: Dict[str, object]) -> Tuple[int, str, bytes]:
        return 200, _JSON, json.dumps(payload).encode("utf-8")

    @staticmethod
    def _parse_json(body: bytes) -> Dict[str, object]:
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"request body is not valid JSON: {error}") from error
        if not isinstance(parsed, dict):
            raise BadRequest("request body must be a JSON object")
        return parsed

    def _prepare_or_400(self, text: object) -> PreparedQuery:
        """Validate one query string (plans are cached, so nothing is wasted)."""
        if not isinstance(text, str) or not text.strip():
            raise BadRequest("'query' must be a non-empty string")
        try:
            return self.service.prepare(text)
        except ValueError as error:
            raise BadRequest(f"cannot parse query {text!r}: {error}") from error

    def _shed_if_saturated(self, incoming: int) -> Optional[Tuple[int, str, bytes]]:
        """The bounded-queue check: a 503 response when *incoming* more
        queries would push the executor backlog past ``max_queue``."""
        if self._inflight_queries + incoming > self.max_queue:
            self.metrics.sheds["queue"] += 1
            return self._json_error(
                503,
                f"server saturated ({self._inflight_queries} queries in flight, "
                f"max_queue={self.max_queue}); retry later",
            )
        return None

    async def _handle_query(self, body: bytes) -> Tuple[int, str, bytes]:
        payload = self._parse_json(body)
        if "query" not in payload:
            raise BadRequest("missing 'query' field")
        text = payload["query"]
        prepared = self._prepare_or_400(text)
        service = self.service
        # A resident result costs microseconds: answer it here, with no
        # hand-off and no queue slot.  Only a real QueryService is asked --
        # a wrapper that forwards the probe to one and then blocks in its
        # own run() would freeze the loop.
        if isinstance(service, QueryService) and service.result_resident(prepared):
            result = self.service.run(text)
            self.metrics.query_answers["loop"] += 1
            return self._json_ok({"query": text, "result": result_to_dict(result)})
        shed = self._shed_if_saturated(1)
        if shed is not None:
            return shed
        run = self.service.run
        if obs.enabled():
            # run_in_executor does not carry context variables into the pool
            # thread; copy the context so the service's spans nest under this
            # request's root span and inherit its request id.
            run = functools.partial(contextvars.copy_context().run, run)
        assert self._executor is not None
        self._inflight_queries += 1
        try:
            answer = asyncio.get_running_loop().run_in_executor(self._executor, run, text)
            with _deadline(self.request_timeout):
                result = await answer
        finally:
            self._inflight_queries -= 1
        self.metrics.query_answers["pool"] += 1
        return self._json_ok({"query": text, "result": result_to_dict(result)})

    async def _handle_batch(self, body: bytes, request_id: str) -> Tuple[int, str, bytes]:
        payload = self._parse_json(body)
        if "queries" not in payload or not isinstance(payload["queries"], list):
            raise BadRequest("missing 'queries' field (a JSON list of query strings)")
        texts: List[str] = payload["queries"]
        for text in texts:
            self._prepare_or_400(text)
        shed = self._shed_if_saturated(len(texts))
        if shed is not None:
            return shed
        assert self._batcher is not None
        self._inflight_queries += len(texts)
        try:
            with _deadline(self.request_timeout):
                results = await self._batcher.submit(texts, request_id=request_id)
        finally:
            self._inflight_queries -= len(texts)
        return self._json_ok({
            "count": len(results),
            "results": [
                {"query": text, "result": result_to_dict(result)}
                for text, result in zip(texts, results)
            ],
        })

    def _log_server_error(self, path: str, request_id: str, error: BaseException) -> None:
        """One structured line per 500: request id, error, full traceback.

        Goes to the tracer's sinks (the ``--trace-log`` JSONL file) when
        tracing is on, to the ``repro.serve`` logger otherwise -- never into
        the HTTP response.
        """
        self._server_errors += 1
        detail = "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        )
        if obs.enabled():
            obs.get_tracer().emit({
                "kind": "error",
                "request_id": request_id,
                "path": path,
                "error": repr(error),
                "traceback": detail,
                "ts": time.time(),
            })
        else:
            _LOG.error(
                "request %s to %s failed: %r\n%s", request_id, path, error, detail
            )

    def _handle_debug_trace(self, query_string: str) -> Tuple[int, str, bytes]:
        if not obs.enabled():
            return self._json_ok({"enabled": False, "traces": []})
        params = parse_qs(query_string)
        raw = params.get("n", ["16"])[-1]
        try:
            n = int(raw)
        except ValueError as error:
            raise BadRequest(f"'n' must be an integer, got {raw!r}") from error
        if n < 1:
            raise BadRequest(f"'n' must be >= 1, got {n}")
        tracer = obs.get_tracer()
        traces = tracer.last(n)
        return self._json_ok({
            "enabled": True,
            "count": len(traces),
            "traces_finished": tracer.traces_finished,
            "traces": traces,
        })

    def _handle_stats(self) -> Tuple[int, str, bytes]:
        stats = self.service.stats().as_dict()
        server_block: Dict[str, object] = {
            "uptime_seconds": time.time() - self._started_at,
            "draining": self._draining,
            "connections": {
                "open": len(self._connections),
                "peak": self.metrics.connections_peak,
                "max": self.max_connections,
            },
            "sheds": dict(self.metrics.sheds),
            "timeouts": dict(self.metrics.timeouts),
            "query_answers": dict(self.metrics.query_answers),
            "protocol_errors": self.metrics.protocol_errors,
            "idle_closed": self.metrics.idle_closed,
            "inflight_queries": self._inflight_queries,
            "limits": {
                "header_timeout": self.header_timeout,
                "request_timeout": self.request_timeout,
                "write_timeout": self.write_timeout,
                "max_connections": self.max_connections,
                "max_queue": self.max_queue,
                "drain_timeout": self.drain_timeout,
                "max_header_bytes": self.max_header_bytes,
                "max_body_bytes": self.max_body_bytes,
            },
            "endpoints": {
                path: {
                    "requests": endpoint.requests,
                    "errors": endpoint.errors,
                    "latency": endpoint.latency.percentiles(),
                }
                for path, endpoint in self.metrics.endpoints.items()
            },
        }
        if self._batcher is not None:
            server_block["batcher"] = {
                "flushes": self._batcher.flushes,
                "queries_batched": self._batcher.queries_batched,
                "flush_window": self._batcher.flush_window,
                "max_batch": self._batcher.max_batch,
            }
        tracing: Dict[str, object] = {"enabled": obs.enabled(), "errors": self._server_errors}
        if obs.enabled():
            tracer = obs.get_tracer()
            tracing.update({
                "traces_finished": tracer.traces_finished,
                "sink_errors": tracer.sink_errors,
                "slow_ms": tracer.slow_ms,
                "slow_queries": list(tracer.slow_queries),
            })
        server_block["tracing"] = tracing
        # The census reads every page of every index file: once per version.
        index = self.service.index
        if self._census[0] != index.version:
            self._census = (index.version, index.page_census())
        return self._json_ok(
            {"flavor": self.flavor, "service": stats, "server": server_block, "storage": self._census[1]}
        )

    def _handle_healthz(self) -> Tuple[int, str, bytes]:
        """Liveness -- 503 + ``"draining"`` once a graceful drain started,
        so load balancers stop routing while in-flight work finishes."""
        draining = self._draining
        payload = {
            "status": "draining" if draining else "ok",
            "flavor": self.flavor,
            "index": self.index_path,
            "uptime_seconds": time.time() - self._started_at,
        }
        status = 503 if draining else 200
        return status, _JSON, json.dumps(payload).encode("utf-8")

    def _handle_metrics(self) -> Tuple[int, str, bytes]:
        body = self.metrics.render(
            self.service,
            self._batcher,
            draining=self._draining,
            connections_open=len(self._connections),
        )
        return 200, _PROMETHEUS, body.encode("utf-8")


# ----------------------------------------------------------------------
# Running a server from synchronous code (tests, loadgen, examples)
# ----------------------------------------------------------------------
class ServerThread:
    """Runs a :class:`QueryServer` on its own event loop in a daemon thread.

    The constructor arguments are those of :class:`QueryServer`.  ``start``
    blocks until the socket is bound (so ``url`` is valid) and re-raises
    any bind error in the caller's thread; ``stop`` shuts the loop down and
    joins the thread; ``drain`` runs the graceful-drain sequence first.
    The service is NOT owned: close it after ``stop``.
    """

    def __init__(self, service: QueryService, **kwargs: object):
        self._server = QueryServer(service, **kwargs)  # type: ignore[arg-type]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def server(self) -> QueryServer:
        return self._server

    @property
    def url(self) -> str:
        return self._server.url

    @property
    def port(self) -> int:
        return self._server.port

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, name="repro-serve-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):  # pragma: no cover - defensive
            raise RuntimeError("server failed to start within the timeout")
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        stop_signal = loop.create_future()
        self._stop_signal = stop_signal
        try:
            loop.run_until_complete(self._server.start())
        except BaseException as error:  # bind failures surface in start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_until_complete(stop_signal)
            loop.run_until_complete(self._server.stop())
        finally:
            loop.close()

    def drain(self, timeout: Optional[float] = None) -> Dict[str, object]:
        """Run the server's graceful drain on its loop; blocks until done.

        The loop keeps running afterwards (so ``stop`` still joins it);
        returns the drain summary.  *timeout* bounds the wait and should
        exceed the server's ``drain_timeout``.
        """
        loop = self._loop
        if loop is None or not self._thread or not self._thread.is_alive():
            return {"drain_seconds": 0.0, "forced_connections": 0, "completed": False}
        future = asyncio.run_coroutine_threadsafe(self._server.drain(), loop)
        budget = timeout if timeout is not None else self._server.drain_timeout + 10.0
        return future.result(budget)

    def stop(self) -> None:
        loop = self._loop
        if loop is None or not self._thread or not self._thread.is_alive():
            return
        loop.call_soon_threadsafe(
            lambda: self._stop_signal.done() or self._stop_signal.set_result(None)
        )
        self._thread.join(timeout=10.0)
        self._loop = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def open_server(index_path: str, **kwargs: object) -> Tuple[QueryService, ServerThread]:
    """Open *index_path* for serving and start a background server over it.

    Returns ``(service, running ServerThread)``; the caller stops the
    thread first, then closes the service.  Dispatches on the manifest like
    :meth:`QueryService.open`, so plain, sharded and live indexes all work.
    """
    service = QueryService.open(index_path)
    try:
        thread = ServerThread(service, index_path=index_path, **kwargs).start()
    except BaseException:
        service.close()
        raise
    return service, thread
