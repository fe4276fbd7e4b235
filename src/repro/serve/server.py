"""A stdlib-only asyncio HTTP front end over a query service, whatever it serves.

``QueryServer`` speaks just enough HTTP/1.1 (:mod:`repro.serve.framing`:
request line, headers, ``Content-Length`` bodies, keep-alive), one
``asyncio.BufferedProtocol`` per connection, to serve six JSON/text endpoints:

``POST /query``
    ``{"query": "NP(DT)(NN)"}`` -> one result (matches per tree, stats);
``POST /query/batch``
    ``{"queries": [...]}`` -> results in input order, from one
    ``run_many``: each distinct cover key fetched once, each distinct
    query joined once;
``GET /stats``
    the merged service-stats shape (identical keys for plain / sharded /
    live services) plus server-side counters;
``GET /healthz``
    liveness: flavor, index path, uptime -- 503 with ``"draining"`` once a
    graceful drain has started;
``GET /metrics``
    Prometheus text (:mod:`repro.serve.metrics`): per-endpoint
    request/error counters and latency histograms (log-spaced buckets +
    derived p50/p95/p99), cache hit rates, service counters,
    shed/timeout/drain telemetry;
``GET /debug/trace``
    the last request traces, when tracing is on.

The two query endpoints are one path -- ``/query/batch`` is ``/query`` over
a list.  Query execution is synchronous, CPU-bound work, so it runs on a
thread pool (the services are thread-safe by design) and the event loop
stays free to accept further requests.  The one exception is a request
whose every result is already resident in a real
:class:`~repro.service.service.QueryService`'s result cache: that costs
microseconds a query, so it is answered on the loop, in the
``buffer_updated`` call that completed it, like every GET and refusal.  The
server owns nothing: pass an open service, close it yourself -- or use
:func:`open_server` / ``repro serve`` which open and close the service
around the server.

Hostile-traffic hardening
-------------------------
The server assumes every client may be slow, dead or malicious:

* requests are read, and responses written, under one clock a connection
  (``header_timeout``: 408; ``write_timeout``: abort) and the size limits
  of :mod:`repro.serve.framing` (431 / 413) -- a client that connects and
  sends nothing is reaped on the header clock, while an *idle keep-alive*
  connection is closed silently instead, like any production server; a
  malformed head gets a clean 4xx JSON error, never a traceback;
* handler work is bounded by ``request_timeout`` (504; the executor
  thread finishes in the background -- threads cannot be killed);
* a connection with pipelined requests buffered serves one a loop turn,
  so one client's backlog never stalls the others (or the timers);
* at most ``max_connections`` connections are served; excess connections
  receive an immediate 503 with ``Retry-After`` and are closed;
* at most ``max_queue`` queries may be queued or running on the executor;
  further queries are load-shed with 503 + ``Retry-After`` instead of
  queuing unboundedly (bounded queue => bounded latency for everyone
  accepted); a batch longer than ``max_queue`` could never be admitted
  and is refused with a 413 instead;
* :meth:`QueryServer.drain` is the graceful shutdown: stop accepting,
  let in-flight requests finish (time-boxed by ``drain_timeout``), shut
  the pool down.  ``repro serve`` wires it to SIGTERM/SIGINT and exits 0.

Every shed, timeout and drain is counted and exposed in ``/metrics``
(``repro_http_sheds_total``, ``repro_http_timeouts_total``,
``repro_server_draining``, ...) and in the ``server`` block of ``/stats``.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
import logging
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs

from repro import obs
from repro.exec.executor import QueryResult
from repro.obs.sinks import JsonlSink
from repro.serve.framing import ProtocolError, Request, RequestParser, encode_response
from repro.serve.metrics import ServerMetrics
from repro.service.service import PreparedQuery, QueryService

#: The method each route takes; the routes in display order.
_METHODS = {
    "/query": "POST",
    "/query/batch": "POST",
    "/stats": "GET",
    "/healthz": "GET",
    "/metrics": "GET",
    "/debug/trace": "GET",
}

#: Routes the server knows, in display order.
ENDPOINTS = tuple(_METHODS)

_LOG = logging.getLogger("repro.serve")

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: One answer before framing: status, content type, body.
Response = Tuple[int, str, bytes]

#: What a request dispatches to: its response, or what will produce it.
Answer = Union[Response, Awaitable[Response]]

#: The hardening knobs by what a valid value is (``limits`` in ``/stats``).
_POSITIVE = ("header_timeout", "request_timeout", "write_timeout", "drain_timeout")
_AT_LEAST_ONE = ("max_connections", "max_queue", "max_header_bytes", "max_body_bytes")
#: The most one read takes off a socket, into its server's one buffer (``sock.recv`` allocates one a read).
_READ_BYTES = 64 * 1024


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


def _encoded(result: QueryResult) -> bytes:
    """*result*'s JSON, encoded the first time it is sent and kept on it.

    A resident answer is the object the result cache holds, so each cached
    result is encoded once; a result cut by a delete or concatenated from
    live parts is a new object and is encoded afresh.  Only the event loop
    serialises, so the slot needs no lock.
    """
    if result.encoded is None:
        result.encoded = json.dumps(result_to_dict(result)).encode("utf-8")
    return result.encoded


def _answer_bytes(text: object, result: QueryResult) -> bytes:
    """``{"query": text, "result": ...}`` as ``json.dumps`` writes it."""
    return b'{"query": ' + json.dumps(text).encode("utf-8") + b', "result": ' + _encoded(result) + b"}"


class BadRequest(ValueError):
    """A client error the handler converts into a 400 JSON response."""


class QueryServer:
    """The asyncio HTTP server over one open query service."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 4,
        index_path: Optional[str] = None,
        trace: bool = False,
        trace_log: Optional[str] = None,
        slow_ms: Optional[float] = None,
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
            raise ValueError(f"port must be in 0..65535 (0 = ephemeral), got {port}")
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.service = service
        self.host = host
        self.port = port  # 0 = ephemeral; replaced by the bound port on start()
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
        for name in _POSITIVE:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in _AT_LEAST_ONE:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # Any tracing knob turns tracing on for the server's lifetime.
        self.trace = bool(trace or trace_log or slow_ms is not None)
        self.trace_log = trace_log
        self.slow_ms = slow_ms
        self.metrics = ServerMetrics(ENDPOINTS)
        #: The wire name of what is served: ``plain`` / ``sharded`` / ``live``.
        self.flavor = service.index.flavor
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._connections: set = set()
        #: Connections currently between "request read" and "response
        #: written"; drain() lets these finish, idle connections it closes.
        self._busy: set = set()
        self._inflight_queries = 0
        self._draining = False
        self._started_at = 0.0
        self._census: Tuple[object, Dict[str, object]] = (None, {})  # index version it was taken at
        self._trace_sink: Optional[JsonlSink] = None
        self._owns_tracer = False
        self._server_errors = 0
        self._read_buffer = memoryview(bytearray(_READ_BYTES))  # every read, copied out at once

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
            obs.enable(obs.Tracer(sinks=sinks, slow_ms=self.slow_ms))
            self._owns_tracer = True
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-serve"
        )
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        return self

    async def drain(self, grace: Optional[float] = None) -> Dict[str, object]:
        """Shut down: stop accepting, finish in-flight, then stop.

        The sequence (surfaced in ``/healthz`` as ``draining`` from the
        first step on):

        1. close the listening socket -- new connections are refused;
        2. close *idle* connections (waiting for a request);
        3. wait up to *grace* seconds (``drain_timeout`` when not given)
           for busy connections to finish writing their current response
           (which carries ``Connection: close``), then abort any
           stragglers -- a *grace* of 0 is the abrupt stop: every
           connection is aborted at once;
        4. shut the executor down.

        Returns a summary dict (``drain_seconds``, ``forced_connections``).
        Idempotent: a second call returns immediately.
        """
        if self._server is None and self._executor is None:
            return {"drain_seconds": 0.0, "forced_connections": 0, "completed": True}
        started = time.perf_counter()
        self._draining = True
        listener, self._server = self._server, None
        if listener is not None:
            listener.close()
        # Connections accepted in the close window register themselves a
        # loop turn later; give them that turn so the snapshots below see them.
        await asyncio.sleep(0)
        # Idle connections have nothing in flight: reap them now so the
        # drain clock is spent on connections doing real work.
        for connection in list(self._connections - self._busy):
            connection.transport.close()
        forced = 0
        if self._connections:
            _, pending = await asyncio.wait(
                [connection.closed for connection in self._connections],
                timeout=self.drain_timeout if grace is None else grace,
            )
            forced = len(pending)
        # Whatever is left -- past the deadline, or slipped past the snapshot
        # (it cannot do real work: the executor is about to go away) -- is
        # aborted rather than abandoned to outlive the loop.
        while self._connections:
            closing = list(self._connections)
            for connection in closing:
                connection.transport.abort()
            await asyncio.gather(*[connection.closed for connection in closing])
        if listener is not None:
            await listener.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._owns_tracer:
            obs.disable()
            self._owns_tracer = False
        if self._trace_sink is not None:
            self._trace_sink.close()
            self._trace_sink = None
        return {
            "drain_seconds": time.perf_counter() - started,
            "forced_connections": forced,
            "completed": True,
        }

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
            await self.drain(grace=0.0)

    # ------------------------------------------------------------------
    # Routing and handlers
    # ------------------------------------------------------------------
    async def _traced(self, request: Request, request_id: str) -> Response:
        """:meth:`_dispatch` under a root span (which outlives the callback
        that parsed the request, so a traced request is always awaited)."""
        token = obs.set_request_id(request_id)
        try:
            with obs.trace("http_request", method=request.method, path=request.path) as span:
                response = self._dispatch(request, request_id)
                if not isinstance(response, tuple):
                    response = await response
                span.set(status=response[0])
                return response
        finally:
            obs.reset_request_id(token)

    def _dispatch(self, request: Request, request_id: str) -> Answer:
        """The response to *request* if it is ready now, else an awaitable
        of it (a request that needs the pool)."""
        path = request.path
        allowed = _METHODS.get(path)
        if allowed is None:
            return self._json_error(
                404, f"unknown path {path!r} (endpoints: {', '.join(ENDPOINTS)})"
            )
        if request.method != allowed:
            return self._json_error(
                405, f"POST a JSON body to {path}" if allowed == "POST" else f"{path} is GET-only"
            )
        try:
            if allowed == "POST":
                return self._handle_queries(request.body, path, request_id)
            if path == "/stats":
                return self._handle_stats()
            if path == "/healthz":
                return self._handle_healthz()
            if path == "/metrics":
                return self._handle_metrics()
            return self._handle_debug_trace(request.query_string)
        except BadRequest as error:
            return self._json_error(400, str(error))
        except Exception as error:  # noqa: BLE001 - the server must not die on a handler bug
            return self._server_error(path, request_id, error)

    def _json_error(self, status: int, message: str) -> Response:
        return status, _JSON, json.dumps({"error": message}).encode("utf-8")

    def _json_ok(self, payload: Dict[str, object]) -> Response:
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

    def _handle_queries(self, body: bytes, path: str, request_id: str) -> Answer:
        """``/query`` and ``/query/batch``: prepare, answer resident results
        here, shed, hand everything else to the pool (:meth:`_on_pool`)."""
        payload = self._parse_json(body)
        service = self.service
        batch = path == "/query/batch"
        if batch:
            texts = payload.get("queries")
            if not isinstance(texts, list):
                raise BadRequest("missing 'queries' field (a JSON list of query strings)")
            if len(texts) > self.max_queue:
                # Not a shed: no amount of retrying admits it.
                return self._json_error(
                    413,
                    f"a batch of {len(texts)} queries exceeds the limit (max_queue={self.max_queue})",
                )
        else:
            if "query" not in payload:
                raise BadRequest("missing 'query' field")
            texts = [payload["query"]]
        # Each text is prepared once: run / run_many take the prepared query
        # as it is, so a served query is one plan-cache lookup.
        prepared = [self._prepare_or_400(text) for text in texts]
        run, argument = (service.run_many, prepared) if batch else (service.run, prepared[0])
        # Resident results cost microseconds each: answer them here, with no
        # hand-off and no queue slot.  Only a real QueryService is asked --
        # a wrapper that forwards the probe to one and then blocks in its
        # own run() would freeze the loop.
        if isinstance(service, QueryService) and all(map(service.result_resident, prepared)):
            answer = run(argument)
            self.metrics.query_answers["loop"] += 1
            return self._queries_ok(texts, answer, batch)
        if self._inflight_queries + len(texts) > self.max_queue:
            self.metrics.sheds["queue"] += 1
            return self._json_error(
                503,
                f"server saturated ({self._inflight_queries} queries in flight, "
                f"max_queue={self.max_queue}); retry later",
            )
        if obs.enabled():
            # run_in_executor does not carry context variables into the pool
            # thread; copy the context so the service's spans nest under this
            # request's root span and inherit its request id.
            run = functools.partial(contextvars.copy_context().run, run)
        # The slots are taken here, in the same step as the check above, so
        # no other request can slip in between; _on_pool gives them back.
        self._inflight_queries += len(texts)
        return self._on_pool(run, argument, texts, path, request_id)

    async def _on_pool(self, run, argument, texts: List[object], path: str, request_id: str) -> Response:
        """One ``run`` / ``run_many`` on the pool under the handler timer."""
        assert self._executor is not None
        try:
            pending = asyncio.get_running_loop().run_in_executor(self._executor, run, argument)
            answer = await asyncio.wait_for(pending, self.request_timeout)
        except asyncio.TimeoutError:
            # The executor thread finishes its query in the background
            # (threads cannot be interrupted); the bounded queue keeps such
            # zombies from accumulating without limit.
            self.metrics.timeouts["handler"] += 1
            return self._json_error(
                504, f"request timed out after {self.request_timeout:g}s of processing"
            )
        except Exception as error:  # noqa: BLE001 - the server must not die on a handler bug
            return self._server_error(path, request_id, error)
        finally:
            self._inflight_queries -= len(texts)
        self.metrics.query_answers["pool"] += 1
        return self._queries_ok(texts, answer, path == "/query/batch")

    def _queries_ok(self, texts: List[object], answer, batch: bool) -> Response:
        """The body ``json.dumps`` would write, spliced from each result's
        bytes (:func:`_encoded`)."""
        if not batch:
            return 200, _JSON, _answer_bytes(texts[0], answer)
        results = b", ".join([_answer_bytes(text, result) for text, result in zip(texts, answer)])
        return 200, _JSON, b'{"count": %d, "results": [' % len(texts) + results + b"]}"

    def _server_error(self, path: str, request_id: str, error: BaseException) -> Response:
        """A 500, and one structured line for it: request id, error, full traceback.

        The line goes to the tracer's sinks (the ``--trace-log`` JSONL file)
        when tracing is on, to the ``repro.serve`` logger otherwise -- never
        into the HTTP response, whose body stays generic.
        """
        self._server_errors += 1
        detail = "".join(traceback.format_exception(type(error), error, error.__traceback__))
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
            _LOG.error("request %s to %s failed: %r\n%s", request_id, path, error, detail)
        return self._json_error(500, "internal server error")

    def _handle_debug_trace(self, query_string: str) -> Response:
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

    def _handle_stats(self) -> Response:
        stats = self.service.stats().as_dict()
        server_block: Dict[str, object] = {
            "uptime_seconds": time.time() - self._started_at,
            "draining": self._draining,
            "connections": {
                "open": len(self._connections),
                "peak": self.metrics.connections_peak,
                "max": self.max_connections,
            },
            **self.metrics.as_dict(),
            "inflight_queries": self._inflight_queries,
            "limits": {name: getattr(self, name) for name in _POSITIVE + _AT_LEAST_ONE},
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

    def _handle_healthz(self) -> Response:
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

    def _handle_metrics(self) -> Response:
        body = self.metrics.render(
            self.service.stats().as_dict(),
            draining=self._draining,
            connections_open=len(self._connections),
        )
        return 200, _PROMETHEUS, body.encode("utf-8")


class _Connection(asyncio.BufferedProtocol):
    """One client connection: its receive buffer, its one clock, at most one task.

    A read lands in the server's one read buffer, copied to the parser's at
    once.  A request whose answer is ready -- a GET, any refusal, a resident
    ``/query`` -- is answered in the ``buffer_updated`` call that completed
    it.  One that needs the pool (or runs traced) pauses reading and becomes
    one task, which writes its response and comes back to the buffer a loop
    turn later -- as does the next of several pipelined requests.  The clock
    is the wait's: *header* while the head is incomplete, *body* while the
    body is, *write* while the transport has paused writing.
    """

    def __init__(self, server: QueryServer):
        self.server = server
        self.loop = asyncio.get_running_loop()
        self.transport: asyncio.Transport  # set by connection_made
        self.parser = RequestParser(server.max_header_bytes, server.max_body_bytes)
        self.first = True  # no request yet: the header clock ends in a 408
        self.eof = False  # the peer has closed its end
        self.writing_paused = False
        self.clock: Optional[str] = None  # "header" / "body" / "write"
        self.deadline = 0.0  # when the running clock runs out (loop time)
        self.timer: Optional[asyncio.TimerHandle] = None
        self.task: Optional[asyncio.Task] = None
        self.next_turn: Optional[asyncio.Handle] = None
        #: Resolved when the connection is gone; what drain() waits on.
        self.closed = self.loop.create_future()

    # -- asyncio callbacks ----------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        server = self.server
        server._connections.add(self)
        server.metrics.connection_opened(len(server._connections))
        # A small write buffer makes the transport pause writing early, so
        # the write clock observes a stalled client instead of the
        # transport buffering megabytes silently.
        self.transport.set_write_buffer_limits(high=server.write_buffer)
        if len(server._connections) > server.max_connections:
            reason = "connections"
            message = f"connection limit reached (max_connections={server.max_connections})"
        elif server._draining:
            reason, message = "draining", "server is draining"
        else:
            self._next()
            return
        server.metrics.sheds[reason] += 1
        self._write(server._json_error(503, message), keep_alive=False)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.server._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.parser.buffer += self.server._read_buffer[:nbytes]
        self._next()

    def eof_received(self) -> bool:
        self.eof = True
        self._next()
        return True  # the transport stays open until _next closes it

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._cancel_timer()
        if self.task is not None:
            self.task.cancel()
        self.server._busy.discard(self)
        self.server._connections.discard(self)
        self.closed.set_result(None)

    def pause_writing(self) -> None:
        # The client stopped reading: serve nothing more until it catches up.
        self.writing_paused = True
        self.transport.pause_reading()
        self._start_clock("write", self.server.write_timeout)

    def resume_writing(self) -> None:
        self.writing_paused = False
        self._stop_clock()
        self._next_later()

    # -- serving --------------------------------------------------------
    def _next(self) -> None:
        """Serve the request at the front of the buffer, or wait for it."""
        transport = self.transport
        if self.task or self.next_turn or self.writing_paused or transport.is_closing():
            return
        server = self.server
        try:
            request = self.parser.next()
        except ProtocolError as error:
            self._refuse(error)
            return
        if not isinstance(request, Request):
            if request is None or self.eof:
                # A blank request line, or the peer closed its end before
                # the request was whole: hang up, with no response.
                self._stop_clock()
                transport.close()
            else:
                self._start_clock(request, server.header_timeout)
                transport.resume_reading()
            return
        self._stop_clock()
        self.first = False
        # Request ids always flow, traced or not: take the client's
        # X-Request-ID, mint one otherwise, echo it on the response.
        request_id = request.client_request_id or obs.new_request_id()
        started = time.perf_counter()
        dispatch = server._traced if obs.enabled() else server._dispatch
        answer = dispatch(request, request_id)
        if not isinstance(answer, tuple):
            transport.pause_reading()
            server._busy.add(self)
            self.task = self.loop.create_task(self._answer_later(answer, request, request_id, started))
            return
        self._answer(request, request_id, started, answer)
        if self.parser.buffer:
            transport.pause_reading()
            self._next_later()
        else:
            self._next()  # arms the idle clock

    async def _answer_later(
        self, pending: Awaitable[Response], request: Request, request_id: str, started: float
    ) -> None:
        # connection_lost cancels the task: nobody is left to answer.
        response = await pending
        self.task = None
        self.server._busy.discard(self)
        self._answer(request, request_id, started, response)
        self._next_later()

    def _next_later(self) -> None:
        """Come back to the buffer on the next loop turn (once, however often asked)."""
        if self.next_turn is None:
            self.next_turn = self.loop.call_soon(self._on_next_turn)

    def _on_next_turn(self) -> None:
        self.next_turn = None
        self._next()

    def _answer(self, request: Request, request_id: str, started: float, response: Response) -> None:
        server = self.server
        server.metrics.for_endpoint(request.path).record(response[0], time.perf_counter() - started)
        # A drain that started while the request ran still gets its
        # response out, marked Connection: close.
        self._write(response, request.keep_alive and not server._draining, request_id)

    def _write(self, response: Response, keep_alive: bool, request_id: Optional[str] = None) -> None:
        self.transport.write(encode_response(*response, keep_alive, request_id))
        if not keep_alive:
            self.transport.close()

    def _refuse(self, error: ProtocolError) -> None:
        self._stop_clock()  # the connection is closing: no read clock may ring
        if self.transport.is_closing():
            return  # closed already (drain reaped it while a read clock ran)
        metrics = self.server.metrics
        if error.timeout is not None:
            metrics.timeouts[error.timeout] += 1
        metrics.protocol_errors += 1
        metrics.for_endpoint("/_protocol").record(error.status, 0.0)
        self._write(self.server._json_error(error.status, error.message), keep_alive=False)

    # -- the clock --------------------------------------------------------
    def _start_clock(self, clock: str, seconds: float) -> None:
        """Run *clock* for *seconds* unless it runs already: a wait's clock
        starts once, however many reads the wait takes."""
        if self.clock != clock:
            self.clock = clock
            self.deadline = self.loop.time() + seconds
            # The timer is moved only when it would ring late: a clock that
            # stops and starts again between two requests costs no timer.
            if self.timer is None or self.timer.when() > self.deadline:
                self._cancel_timer()
                self.timer = self.loop.call_at(self.deadline, self._ring)

    def _stop_clock(self) -> None:
        self.clock = None  # an armed timer finds nothing to do when it rings

    def _cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def _ring(self) -> None:
        rang, self.timer = self.timer.when(), None  # type: ignore[union-attr]
        if self.clock is None:
            return
        if rang < self.deadline:  # the clock restarted after the timer was set
            self.timer = self.loop.call_at(self.deadline, self._ring)
            return
        clock, self.clock = self.clock, None
        server = self.server
        if clock == "write":
            server.metrics.timeouts["write"] += 1
            self.transport.abort()
        elif clock == "body":
            self._refuse(ProtocolError(
                408, f"timed out reading the request body (timeout {server.header_timeout:g}s)", "body"
            ))
        elif self.parser.buffer or self.first:
            # Connect-and-say-nothing, or a slow-loris head dribbling in
            # slower than the budget.
            doing = "reading request headers" if self.parser.buffer else "waiting for a request"
            self._refuse(ProtocolError(
                408, f"timed out {doing} (header timeout {server.header_timeout:g}s)", "header"
            ))
        else:
            server.metrics.idle_closed += 1
            self.transport.close()


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
            loop.run_until_complete(self._server.drain(grace=0.0))
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
