"""Fault-injection toolkit for the serving-layer chaos suite.

Everything the ``tests/serve/chaos`` tests need to behave badly on purpose:
raw-socket clients that connect and say nothing, dribble bytes slower than
any timeout, vanish mid-request, or accept responses without ever reading
them; a gate that freezes a query service mid-request so queue bounds and
handler timeouts can be observed deterministically; and a strict parser for
the Prometheus text exposition format so ``/metrics`` can be checked for
well-formedness, not just for substrings.

Stdlib only, like everything else in the repo.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# ----------------------------------------------------------------------
# Raw-socket clients
# ----------------------------------------------------------------------


def connect(port: int, host: str = "127.0.0.1", timeout: float = 10.0) -> socket.socket:
    """A connected TCP socket with a read timeout (the *tests* never hang)."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(timeout)
    return sock


def http_request(
    path: str = "/healthz",
    method: str = "GET",
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
    version: str = "HTTP/1.1",
) -> bytes:
    """A well-formed request head + body, ready to send (or mangle)."""
    lines = [f"{method} {path} {version}", "Host: chaos"]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def send_slowly(
    sock: socket.socket,
    payload: bytes,
    chunk_size: int = 1,
    pause: float = 0.05,
    give_up_after: float = 10.0,
) -> int:
    """Slow-loris: dribble *payload* out in tiny chunks, pausing in between.

    Stops early (returning the bytes sent) once the server hangs up -- which
    is exactly what the timeout tests expect it to do.
    """
    sent = 0
    deadline = time.monotonic() + give_up_after
    for start in range(0, len(payload), chunk_size):
        if time.monotonic() > deadline:
            break
        try:
            sock.sendall(payload[start : start + chunk_size])
        except OSError:
            break  # the server reset the connection: mission accomplished
        sent += chunk_size
        time.sleep(pause)
    return sent


@dataclass
class HttpResponse:
    """One parsed HTTP/1.1 response."""

    status: int
    reason: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Dict[str, object]:
        return json.loads(self.body.decode("utf-8"))


def read_http_responses(sock: socket.socket, count: int, timeout: float = 10.0) -> List[HttpResponse]:
    """Read *count* pipelined responses off *sock*, in order; fewer if the
    server closes cleanly between two.

    No byte of a later response is lost when two arrive in one ``recv``.
    Raises ``socket.timeout`` if the server sends nothing within *timeout*
    and ``ValueError`` if it sends something that is not HTTP -- both are
    test failures, never silent.
    """
    sock.settimeout(timeout)
    buffer = b""
    responses: List[HttpResponse] = []
    while len(responses) < count:
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(4096)
            if not chunk:
                if buffer:
                    raise ValueError(f"connection closed mid-head: {buffer!r}")
                return responses
            buffer += chunk
        head, _, buffer = buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        match = re.fullmatch(r"HTTP/1\.1 (\d{3}) (.*)", lines[0])
        if match is None:
            raise ValueError(f"malformed status line: {lines[0]!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(buffer) < length:
            chunk = sock.recv(4096)
            if not chunk:
                raise ValueError(f"connection closed mid-body ({len(buffer)}/{length} bytes)")
            buffer += chunk
        responses.append(HttpResponse(int(match.group(1)), match.group(2), headers, buffer[:length]))
        buffer = buffer[length:]
    return responses


def read_http_response(sock: socket.socket, timeout: float = 10.0) -> Optional[HttpResponse]:
    """Read one response off *sock*; ``None`` on a clean close.

    Whatever a ``recv`` brought past it is dropped: read pipelined
    responses with :func:`read_http_responses`.
    """
    responses = read_http_responses(sock, 1, timeout)
    return responses[0] if responses else None


def wait_for(predicate, timeout: float = 15.0, interval: float = 0.01) -> None:
    """Poll *predicate* until it holds; fail the test after *timeout* seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within the timeout")


def assert_closed(sock: socket.socket, timeout: float = 5.0) -> None:
    """Block until the server closes *sock*; fail the test if it does not."""
    sock.settimeout(timeout)
    leftover = b""
    while True:
        chunk = sock.recv(4096)  # socket.timeout here fails the test loudly
        if not chunk:
            return
        leftover += chunk
        if len(leftover) > 1 << 20:
            raise AssertionError("server keeps sending instead of closing")


def never_reading_socket(port: int, host: str = "127.0.0.1") -> socket.socket:
    """A connected socket with the smallest receive buffer the OS allows.

    The owner must *not* read from it: responses pile up in the tiny kernel
    buffers until the server's transport pauses writing and its write
    timeout fires.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)  # kernel clamps to its floor
    sock.connect((host, port))
    sock.settimeout(30.0)
    return sock


# ----------------------------------------------------------------------
# Service gating: freeze query execution mid-request
# ----------------------------------------------------------------------
class GatedService:
    """Wraps a query service so every ``run``/``run_many`` blocks on a gate.

    With the gate closed, requests pile up on the server's executor --
    exactly the state the queue-bound and handler-timeout tests need to
    reach deterministically.  ``release()`` lets everything finish (always
    call it in teardown: executor threads cannot be cancelled).  All other
    attributes (``prepare``, ``stats``, caches, ...) pass through.
    """

    def __init__(self, inner, hold_timeout: float = 30.0):
        self._inner = inner
        self._gate = threading.Event()
        self._hold_timeout = hold_timeout
        self.entered = 0  # calls that reached the gate (observable from tests)

    def release(self) -> None:
        self._gate.set()

    def run(self, query):
        self.entered += 1
        self._gate.wait(self._hold_timeout)
        return self._inner.run(query)

    def run_many(self, queries):
        self.entered += 1
        self._gate.wait(self._hold_timeout)
        return self._inner.run_many(queries)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class SlowService:
    """Wraps a query service so every query takes at least *delay* seconds."""

    def __init__(self, inner, delay: float):
        self._inner = inner
        self.delay = delay

    def run(self, query):
        time.sleep(self.delay)
        return self._inner.run(query)

    def run_many(self, queries):
        time.sleep(self.delay)
        return self._inner.run_many(queries)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
# Prometheus text-format parsing (exposition format 0.0.4)
# ----------------------------------------------------------------------
#: Suffixes a histogram family's sample names may carry.  ``_quantile`` is
#: this server's pre-computed p50/p95/p99 export alongside the buckets.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count", "_quantile")

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


@dataclass
class Family:
    """One ``# HELP``/``# TYPE`` family and its sample lines, parsed."""

    name: str
    kind: str
    help: str
    #: ``(sample name, labels, value)`` triples in exposition order.
    samples: List[Tuple[str, Dict[str, str], float]] = field(default_factory=list)

    def value(self, labels: Optional[Dict[str, str]] = None, suffix: str = "") -> float:
        """The single sample matching *labels* (and name *suffix*)."""
        wanted = labels or {}
        matches = [
            value
            for name, sample_labels, value in self.samples
            if name == self.name + suffix
            and all(sample_labels.get(key) == val for key, val in wanted.items())
        ]
        if len(matches) != 1:
            raise AssertionError(
                f"expected exactly one {self.name}{suffix} sample with {wanted}, "
                f"got {len(matches)}"
            )
        return matches[0]


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    return float(raw)  # raises ValueError on garbage: caller reports the line


def parse_prometheus(text: str) -> Dict[str, Family]:
    """Parse (and structurally validate) one ``/metrics`` exposition body.

    Enforces what a real scraper relies on: ``# HELP`` then ``# TYPE`` per
    family, each family declared once, every sample line syntactically
    valid with a float-parseable value, every sample attributed to the
    family declared above it (histogram samples via the standard suffixes),
    and histogram bucket series cumulative with a ``+Inf`` bucket equal to
    ``_count``.  Raises ``AssertionError`` with the offending line on any
    violation.
    """
    families: Dict[str, Family] = {}
    current: Optional[Family] = None
    pending_help: Optional[Tuple[str, str]] = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP ") :].split(" ", 1)
            assert len(parts) == 2 and parts[1].strip(), f"HELP without text: {line!r}"
            assert parts[0] not in families, f"family {parts[0]!r} declared twice"
            pending_help = (parts[0], parts[1])
            current = None
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split(" ")
            assert len(parts) == 2, f"malformed TYPE line: {line!r}"
            name, kind = parts
            assert kind in ("counter", "gauge", "histogram", "summary", "untyped"), line
            assert pending_help is not None and pending_help[0] == name, (
                f"TYPE for {name!r} not preceded by its HELP line"
            )
            current = Family(name=name, kind=kind, help=pending_help[1])
            families[name] = current
            pending_help = None
            continue
        assert not line.startswith("#"), f"unexpected comment line: {line!r}"
        match = _SAMPLE_RE.match(line)
        assert match is not None, f"malformed sample line: {line!r}"
        name = match.group("name")
        labels = {key: value for key, value in _LABEL_RE.findall(match.group("labels") or "")}
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise AssertionError(f"non-numeric sample value: {line!r}") from None
        assert current is not None, f"sample before any TYPE header: {line!r}"
        allowed = current.name == name or (
            current.kind == "histogram"
            and any(name == current.name + suffix for suffix in _HISTOGRAM_SUFFIXES)
        )
        assert allowed, f"sample {name!r} under family {current.name!r}: {line!r}"
        current.samples.append((name, labels, value))
    assert pending_help is None, f"HELP without a TYPE line: {pending_help[0]!r}"
    _check_histograms(families)
    return families


def _check_histograms(families: Dict[str, Family]) -> None:
    for family in families.values():
        if family.kind != "histogram":
            continue
        # Group bucket series by their non-le labels.
        series: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]] = {}
        counts: Dict[Tuple[Tuple[str, str], ...], float] = {}
        for name, labels, value in family.samples:
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            if name == family.name + "_bucket":
                assert "le" in labels, f"bucket without le label in {family.name}"
                series.setdefault(key, []).append((_parse_value(labels["le"]), value))
            elif name == family.name + "_count":
                counts[key] = value
        for key, buckets in series.items():
            bounds = [bound for bound, _ in buckets]
            cumulative = [count for _, count in buckets]
            assert bounds == sorted(bounds), f"{family.name} buckets out of order for {key}"
            assert bounds[-1] == float("inf"), f"{family.name} missing +Inf bucket for {key}"
            assert cumulative == sorted(cumulative), (
                f"{family.name} bucket counts not cumulative for {key}"
            )
            assert key in counts and counts[key] == cumulative[-1], (
                f"{family.name} +Inf bucket != _count for {key}"
            )


#: Sample names whose values must never decrease between two scrapes of the
#: same server: counters, plus a histogram's buckets / sum / count.
def monotonic_samples(families: Dict[str, Family]) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """The monotonic subset of an exposition, keyed for scrape-to-scrape diffing."""
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for family in families.values():
        for name, labels, value in family.samples:
            if family.kind == "counter" or (
                family.kind == "histogram" and not name.endswith("_quantile")
            ):
                out[(name, tuple(sorted(labels.items())))] = value
    return out


def assert_monotonic(before: Dict[str, Family], after: Dict[str, Family]) -> None:
    """Every counter-like sample in *before* exists in *after*, not smaller."""
    earlier = monotonic_samples(before)
    later = monotonic_samples(after)
    for key, value in earlier.items():
        assert key in later, f"sample {key} disappeared between scrapes"
        assert later[key] >= value, f"sample {key} went backwards: {value} -> {later[key]}"
