"""Context-local span tracing with a near-zero disabled fast path.

The tracer answers one question the aggregate ``/metrics`` histograms
cannot: *where did this particular query spend its time?*  Call sites wrap
each pipeline stage in ``with trace(name, **attrs):`` blocks; when tracing
is enabled the blocks build a tree of :class:`Span` objects (monotonic
``perf_counter`` timing, parent linkage through a :mod:`contextvars`
variable so the tree assembles itself across ``await`` points and --
when a parent is passed explicitly -- across worker threads).  When
tracing is disabled, ``trace()`` returns one shared no-op span without
allocating anything, so instrumented hot paths cost a single module-level
flag check plus an empty ``with`` block.

A finished *root* span (one with no parent) becomes a JSON-friendly trace
record that is kept in the owning :class:`Tracer`'s ring buffer, matched
against the slow-query threshold, and handed to any attached sinks
(:mod:`repro.obs.sinks`).  Request ids set via :func:`set_request_id`
travel the same context and stamp every root span recorded under them.

The module is stdlib-only and imports nothing from the rest of
:mod:`repro`, so every layer (storage, exec, service, serve, bench) can
instrument itself without import cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Dict, List, Optional, Sequence

__all__ = [
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "annotate",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "format_trace",
    "get_request_id",
    "get_tracer",
    "new_request_id",
    "query_hash",
    "reset_request_id",
    "set_request_id",
    "stage_totals",
    "trace",
]

_current_span: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span", default=None)
_request_id: ContextVar[Optional[str]] = ContextVar("repro_obs_request_id", default=None)


class _NoopSpan:
    """The shared do-nothing span returned by :func:`trace` when disabled.

    A singleton: the disabled fast path must not allocate, so every call
    site receives this same object.  All mutators are no-ops.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


#: The singleton no-op span (``trace(...) is NOOP_SPAN`` whenever disabled).
NOOP_SPAN = _NoopSpan()


class Span:
    """One timed, attributed node in a trace tree.

    Use as a context manager; entering starts the clock and makes the span
    the context-local current span, exiting stops the clock and -- for a
    root span -- hands the finished tree to the tracer.  ``children`` is
    appended to by child spans (list appends are atomic under the GIL, so
    worker threads handed a ``parent=`` may attach children concurrently).
    """

    __slots__ = (
        "name", "attrs", "parent", "children", "request_id",
        "started", "ended", "_tracer", "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, object],
        parent: Optional["Span"],
        request_id: Optional[str],
    ):
        self.name = name
        self.attrs = attrs
        self.parent = parent
        self.children: List["Span"] = []
        self.request_id = request_id
        self.started = 0.0
        self.ended = 0.0
        self._tracer = tracer
        self._token = None

    # ------------------------------------------------------------------
    def set(self, **attrs: object) -> "Span":
        """Merge *attrs* into the span's attributes (chainable)."""
        self.attrs.update(attrs)
        return self

    @property
    def duration_seconds(self) -> float:
        return max(0.0, self.ended - self.started)

    def __enter__(self) -> "Span":
        self._token = _current_span.set(self)
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.ended = time.perf_counter()
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs.setdefault("error", repr(exc) if exc is not None else exc_type.__name__)
        if self.parent is None:
            self._tracer._finish_root(self)
        return False

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The JSON-friendly nested form (microsecond timestamps).

        ``start_us`` is absolute on the process's ``perf_counter`` timeline,
        so spans from different requests share one time base -- exactly what
        the Chrome-trace exporter needs.
        """
        return {
            "name": self.name,
            "start_us": int(self.started * 1e6),
            "duration_us": int(self.duration_seconds * 1e6),
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }


class Tracer:
    """Collects finished traces: ring buffer, slow-query log, sinks.

    Parameters
    ----------
    sinks:
        Objects with a ``write(record: dict)`` method (see
        :class:`repro.obs.sinks.JsonlSink`); each finished root span's
        record is handed to every sink.  Sink failures are swallowed and
        counted -- observability must never take the serving path down.
    slow_ms:
        Root spans at least this many milliseconds long are marked
        ``"slow": true`` and summarised in :attr:`slow_queries`.
        ``None`` disables the slow-query log.
    capacity:
        Ring-buffer size of :meth:`last` / :attr:`recent`.
    slow_capacity:
        Entries kept in the slow-query log.
    """

    def __init__(
        self,
        sinks: Sequence[object] = (),
        slow_ms: Optional[float] = None,
        capacity: int = 256,
        slow_capacity: int = 64,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sinks = list(sinks)
        self.slow_ms = slow_ms
        self.recent: deque = deque(maxlen=capacity)
        self.slow_queries: deque = deque(maxlen=slow_capacity)
        self.traces_finished = 0
        self.sink_errors = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        attrs: Dict[str, object],
        parent: Optional[Span] = None,
    ) -> Span:
        """Create a span parented to *parent* or the context-local span."""
        if parent is None:
            parent = _current_span.get()
        request_id = _request_id.get() if parent is None else parent.request_id
        span = Span(self, name, attrs, parent, request_id)
        if parent is not None:
            parent.children.append(span)
        return span

    def last(self, n: int) -> List[Dict[str, object]]:
        """The most recent *n* trace records, oldest first."""
        if n <= 0:
            return []
        with self._lock:
            records = list(self.recent)
        return records[-n:]

    def emit(self, record: Dict[str, object]) -> None:
        """Write a non-trace structured record (e.g. an error line) to every
        sink, with the same swallow-and-count failure policy as traces.  The
        record stays out of the trace ring -- :meth:`last` returns traces
        only."""
        payload = _jsonable(record)
        for sink in self.sinks:
            try:
                sink.write(payload)
            except Exception:  # noqa: BLE001 - a broken sink must not break serving
                self.sink_errors += 1

    # ------------------------------------------------------------------
    def _finish_root(self, span: Span) -> None:
        duration_ms = span.duration_seconds * 1000.0
        record: Dict[str, object] = {
            "kind": "trace",
            "name": span.name,
            "request_id": span.request_id,
            "ts": time.time(),
            "duration_ms": round(duration_ms, 3),
            "attrs": _jsonable(span.attrs),
            "stages": {
                child.name: round(child.duration_seconds * 1000.0, 3)
                for child in span.children
            },
            "spans": _jsonable(span.to_dict()),
            "slow": bool(self.slow_ms is not None and duration_ms >= self.slow_ms),
        }
        with self._lock:
            self.traces_finished += 1
            self.recent.append(record)
            if record["slow"]:
                self.slow_queries.append({
                    "name": span.name,
                    "request_id": span.request_id,
                    "duration_ms": record["duration_ms"],
                    "ts": record["ts"],
                    "query": _find_attr(span, "query"),
                })
        for sink in self.sinks:
            try:
                sink.write(record)
            except Exception:  # noqa: BLE001 - a broken sink must not break serving
                self.sink_errors += 1


def _find_attr(span: Span, name: str) -> Optional[object]:
    """Depth-first search for an attribute value anywhere in the tree."""
    if name in span.attrs:
        return span.attrs[name]
    for child in span.children:
        found = _find_attr(child, name)
        if found is not None:
            return found
    return None


def _jsonable(value: object) -> object:
    """*value* forced into JSON-safe types (``str()`` fallback)."""
    return json.loads(json.dumps(value, default=str))


# ----------------------------------------------------------------------
# Module-level state: the enabled flag IS the fast path
# ----------------------------------------------------------------------
_ENABLED = False
_TRACER: Optional[Tracer] = None


def enabled() -> bool:
    """Whether tracing is on; hot call sites check this before building attrs."""
    return _ENABLED


def get_tracer() -> Optional[Tracer]:
    """The active tracer (``None`` when tracing has never been enabled)."""
    return _TRACER


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Turn tracing on, installing *tracer* (or a fresh default) globally."""
    global _ENABLED, _TRACER
    _TRACER = tracer if tracer is not None else Tracer()
    _ENABLED = True
    return _TRACER


def disable() -> None:
    """Turn tracing off; ``trace()`` returns :data:`NOOP_SPAN` again."""
    global _ENABLED
    _ENABLED = False


def trace(name: str, parent: Optional[Span] = None, **attrs: object):
    """A span context manager, or the shared no-op span when disabled.

    *parent* overrides the context-local parent -- pass the captured
    enclosing span when handing work to a thread pool, which does not
    propagate context variables (``asyncio``'s ``contextvars.copy_context``
    path does, worker pools driven by ``pool.map`` do not).
    """
    if not _ENABLED:
        return NOOP_SPAN
    tracer = _TRACER
    if tracer is None:  # pragma: no cover - enable() always installs one
        return NOOP_SPAN
    return tracer.span(name, attrs, parent=parent)


def current_span() -> Optional[Span]:
    """The context-local span, or ``None`` (always ``None`` when disabled)."""
    if not _ENABLED:
        return None
    return _current_span.get()


def annotate(**attrs: object) -> None:
    """Merge *attrs* into the current span, if tracing is on and one exists."""
    if not _ENABLED:
        return
    span = _current_span.get()
    if span is not None:
        span.attrs.update(attrs)


# ----------------------------------------------------------------------
# Request ids
# ----------------------------------------------------------------------
def new_request_id() -> str:
    """A fresh, URL-safe request id (32 hex chars: 16 random bytes)."""
    return os.urandom(16).hex()


def set_request_id(request_id: Optional[str]):
    """Bind *request_id* to the current context; returns a reset token."""
    return _request_id.set(request_id)


def reset_request_id(token) -> None:
    """Undo a :func:`set_request_id` (pass its returned token)."""
    _request_id.reset(token)


def get_request_id() -> Optional[str]:
    """The context-local request id, or ``None``."""
    return _request_id.get()


def query_hash(text: str) -> str:
    """A short stable hash of a query text for log correlation (12 hex chars)."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


# ----------------------------------------------------------------------
# Human-readable rendering
# ----------------------------------------------------------------------
def format_trace(record: Dict[str, object]) -> str:
    """Render one trace record as an indented per-stage tree.

    Children are indented under their parent with durations in
    milliseconds; attributes follow inline.  This is what
    ``repro query --trace`` prints after its results.
    """
    lines: List[str] = []
    header = f"trace {record.get('name')} {record.get('duration_ms')} ms"
    request_id = record.get("request_id")
    if request_id:
        header += f"  request_id={request_id}"
    if record.get("slow"):
        header += "  [SLOW]"
    lines.append(header)
    spans = record.get("spans")
    if isinstance(spans, dict):
        _format_span(spans, 1, lines)
    return "\n".join(lines)


def _format_span(span: Dict[str, object], depth: int, lines: List[str]) -> None:
    duration_ms = span.get("duration_us", 0) / 1000.0  # type: ignore[operator]
    attrs = span.get("attrs") or {}
    attr_text = " ".join(f"{key}={value}" for key, value in attrs.items())  # type: ignore[union-attr]
    line = f"{'  ' * depth}{span.get('name')} {duration_ms:.3f} ms"
    if attr_text:
        line += f"  {attr_text}"
    lines.append(line)
    for child in span.get("children") or []:  # type: ignore[union-attr]
        _format_span(child, depth + 1, lines)


def stage_totals(records: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Summed top-level stage durations (ms) across *records*.

    The per-stage breakdown the bench trace hook writes next to its
    ``BENCH_*.json``: one total per distinct stage name.
    """
    totals: Dict[str, float] = {}
    for record in records:
        stages = record.get("stages") or {}
        for name, duration in stages.items():  # type: ignore[union-attr]
            totals[name] = round(totals.get(name, 0.0) + float(duration), 3)  # type: ignore[arg-type]
    return totals
