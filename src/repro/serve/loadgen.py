"""Closed- and open-loop load generation against a running query server.

``run_load`` drives ``concurrency`` worker threads, each owning one
keep-alive :class:`http.client.HTTPConnection` and issuing ``POST /query``
requests back-to-back (closed loop: a worker sends its next request only
after the previous response lands, so offered load adapts to what the
server sustains instead of queueing unboundedly).  Workers walk a shared
query mix round-robin from staggered offsets, so at any instant the server
sees a blend of repeated (cache-friendly) and fresh queries -- the shape
the WH + FB workloads of the paper's experiments produce.

``run_open_loop`` is the honest overload instrument: requests are issued
at a *fixed* arrival rate (Poisson or uniform arrivals) regardless of how
fast responses come back, the way independent users hit a service.  A
closed loop slows down when the server does, which **hides latency under
overload** (coordinated omission); the open loop keeps offering load, so
queueing delay shows up in the percentiles and the server's load-shedding
(503 + ``Retry-After``) is measured rather than masked.  Virtual clients
are unbounded: each arrival grabs an idle keep-alive connection or opens a
new one, and per-request latency is measured from the *scheduled* arrival
instant, so dispatch lag counts against the server, not for it.

Latencies are recorded per request as raw samples; the report computes
exact percentiles from the sorted series (unlike the server's ``/metrics``
histogram, which estimates them from log-spaced buckets -- comparing the
two is a useful sanity check of the bucket resolution).

An optional ``expected`` mapping (query text -> result dict, as produced by
``result_to_dict``) makes every worker verify each response against the
in-process ground truth; mismatches are counted in the report.  Compared
are the *answer* fields -- ``total_matches``, ``matched_tids``,
``matches_per_tree`` -- not the per-execution telemetry under ``stats``
(``elapsed_seconds`` differs on every run by construction).  This is the
served-vs-direct equivalence check the bench experiment relies on.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.serve.metrics import REPORTED_QUANTILES, percentile_of_sorted

#: The result fields that constitute the answer (vs per-execution telemetry).
ANSWER_FIELDS = ("total_matches", "matched_tids", "matches_per_tree")


def answer_of(result: Dict[str, object]) -> Tuple[object, ...]:
    """The comparable answer of one ``result_to_dict`` payload."""
    return tuple(result.get(field) for field in ANSWER_FIELDS)


class _Latencies:
    """Exact percentiles over a report's ``latencies`` (seconds, sorted ascending)."""

    latencies: List[float]

    def percentile(self, q: float) -> Optional[float]:
        """The exact q-th latency percentile in seconds (None if no samples)."""
        return percentile_of_sorted(self.latencies, q)

    def percentiles_ms(self) -> Dict[str, Optional[float]]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` in milliseconds."""
        out: Dict[str, Optional[float]] = {}
        for q in REPORTED_QUANTILES:
            value = self.percentile(q)
            out[f"p{int(q * 100)}"] = None if value is None else value * 1000.0
        return out


@dataclass
class LoadgenReport(_Latencies):
    """What one closed-loop run measured."""

    concurrency: int
    duration_seconds: float  # measured wall time, not the requested duration
    requests: int
    errors: int
    #: Responses that differed from the expected (in-process) result.
    mismatches: int
    #: Per-request latencies in seconds, sorted ascending.
    latencies: List[float] = field(default_factory=list)

    @property
    def qps(self) -> float:
        """Completed requests per second of wall time."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.requests / self.duration_seconds

    def as_dict(self) -> Dict[str, object]:
        """The JSON-friendly summary (raw samples reduced to percentiles)."""
        return {
            "concurrency": self.concurrency,
            "duration_seconds": self.duration_seconds,
            "requests": self.requests,
            "errors": self.errors,
            "mismatches": self.mismatches,
            "qps": self.qps,
            "latency_ms": self.percentiles_ms(),
        }


class _Worker(threading.Thread):
    """One closed-loop client: connect, fire, record, repeat until deadline."""

    def __init__(
        self,
        host: str,
        port: int,
        queries: Sequence[str],
        offset: int,
        barrier: threading.Barrier,
        deadline_holder: List[float],
        expected: Optional[Dict[str, Dict[str, object]]],
        timeout: float,
    ):
        super().__init__(name=f"loadgen-{offset}", daemon=True)
        self._host = host
        self._port = port
        self._queries = queries
        self._position = offset % len(queries)
        self._barrier = barrier
        self._deadline_holder = deadline_holder
        self._expected = expected
        self._timeout = timeout
        self.latencies: List[float] = []
        self.errors = 0
        self.mismatches = 0
        self.failure: Optional[BaseException] = None

    def run(self) -> None:  # pragma: no cover - exercised via run_load
        try:
            connection = http.client.HTTPConnection(self._host, self._port, timeout=self._timeout)
            connection.connect()  # fail fast: a refused connection aborts the run
            try:
                self._barrier.wait()
                deadline = self._deadline_holder[0]
                while time.perf_counter() < deadline:
                    self._one_request(connection)
            finally:
                connection.close()
        except BaseException as error:  # noqa: BLE001 - reported by run_load
            self.failure = error
            self._barrier.abort()  # release everyone blocked on the start line

    def _one_request(self, connection: http.client.HTTPConnection) -> None:
        text = self._queries[self._position]
        self._position = (self._position + 1) % len(self._queries)
        body = json.dumps({"query": text})
        started = time.perf_counter()
        try:
            connection.request(
                "POST", "/query", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.errors += 1
            connection.close()  # reconnect lazily on the next request
            return
        self.latencies.append(time.perf_counter() - started)
        if status != 200:
            self.errors += 1
            return
        if self._expected is not None:
            try:
                result = json.loads(payload)["result"]
            except (json.JSONDecodeError, KeyError, UnicodeDecodeError):
                self.mismatches += 1
                return
            reference = self._expected.get(text)
            if reference is None or answer_of(result) != answer_of(reference):
                self.mismatches += 1


def parse_base_url(url: str) -> Tuple[str, int]:
    """``host, port`` from a base URL like ``http://127.0.0.1:8321``."""
    parts = urlsplit(url if "//" in url else f"http://{url}")
    if parts.scheme not in ("", "http"):
        raise ValueError(f"only http:// URLs are supported, got {url!r}")
    if not parts.hostname:
        raise ValueError(f"cannot extract a host from {url!r}")
    return parts.hostname, parts.port or 80


def run_load(
    url: str,
    queries: Sequence[str],
    concurrency: int,
    duration: float,
    expected: Optional[Dict[str, Dict[str, object]]] = None,
    timeout: float = 30.0,
) -> LoadgenReport:
    """Drive a closed loop of *concurrency* clients for *duration* seconds.

    All workers connect first, then start together behind a barrier, so the
    measured window contains no connection-setup ramp.  Raises the first
    worker-level failure (e.g. refused connection) rather than reporting a
    silently empty run.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if not queries:
        raise ValueError("the query mix is empty")
    host, port = parse_base_url(url)

    deadline_holder = [0.0]
    barrier = threading.Barrier(concurrency + 1)
    stagger = max(1, len(queries) // max(concurrency, 1))
    workers = [
        _Worker(
            host, port, queries, offset * stagger, barrier, deadline_holder, expected, timeout
        )
        for offset in range(concurrency)
    ]
    for worker in workers:
        worker.start()
    # The deadline must be written before the barrier releases the workers;
    # the skew (main reaches the barrier last if workers connect instantly)
    # only shortens the run, never lets a worker see a stale deadline.
    deadline_holder[0] = time.perf_counter() + duration
    try:
        barrier.wait()  # releases every connected worker at once
    except threading.BrokenBarrierError:
        pass  # a worker failed before the start line; its failure is raised below
    started = time.perf_counter()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started

    failures = [worker.failure for worker in workers if worker.failure is not None]
    for failure in failures:  # prefer the root cause over broken-barrier fallout
        if not isinstance(failure, threading.BrokenBarrierError):
            raise failure
    if failures:
        raise failures[0]

    latencies: List[float] = []
    errors = 0
    mismatches = 0
    for worker in workers:
        latencies.extend(worker.latencies)
        errors += worker.errors
        mismatches += worker.mismatches
    latencies.sort()
    return LoadgenReport(
        concurrency=concurrency,
        duration_seconds=elapsed,
        requests=len(latencies),
        errors=errors,
        mismatches=mismatches,
        latencies=latencies,
    )


# ----------------------------------------------------------------------
# Query-mix profiles
# ----------------------------------------------------------------------
#: Named blends of the WH (wh-question patterns, cache-friendly repeats)
#: and FB (frequency-based, heavier joins) query sets: fraction of each
#: slot drawn from the FB set.
PROFILES: Dict[str, float] = {"wh": 0.0, "balanced": 0.5, "fb_heavy": 0.8}


def profile_mix(
    wh_queries: Sequence[str],
    fb_queries: Sequence[str],
    profile: str = "balanced",
    length: int = 256,
    seed: int = 0,
) -> List[str]:
    """A deterministic shuffled query mix blending WH and FB queries.

    *profile* names a blend from :data:`PROFILES` (``wh`` / ``balanced`` /
    ``fb_heavy``).  Sampling is with replacement from each set, seeded, so
    the same (queries, profile, seed) always produces the same mix -- load
    runs stay reproducible.  With an empty FB set the mix degrades to WH
    only (and vice versa) rather than failing.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r} (choose from {sorted(PROFILES)})")
    if not wh_queries and not fb_queries:
        raise ValueError("both query sets are empty")
    if length < 1:
        raise ValueError(f"mix length must be >= 1, got {length}")
    fb_fraction = PROFILES[profile]
    rng = random.Random(seed)
    mix: List[str] = []
    for _ in range(length):
        use_fb = fb_queries and (not wh_queries or rng.random() < fb_fraction)
        source = fb_queries if use_fb else wh_queries
        mix.append(source[rng.randrange(len(source))])
    return mix


# ----------------------------------------------------------------------
# Open-loop (fixed-rate) load generation
# ----------------------------------------------------------------------
@dataclass
class OpenLoopReport(_Latencies):
    """What one open-loop run measured.

    ``offered`` counts scheduled arrivals that were dispatched; responses
    split into ``accepted`` (200, verified against ground truth),
    ``shed`` (503 load-shedding -- the server protecting itself, *not* an
    error) and ``errors`` (every other status plus transport failures).
    ``latencies`` holds accepted-response latencies measured from the
    scheduled arrival instant (queueing delay included), sorted ascending.
    """

    rate: float
    arrivals: str
    duration_seconds: float
    offered: int
    accepted: int
    shed: int
    errors: int
    mismatches: int
    #: Arrivals never dispatched because ``max_clients`` was exhausted -- a
    #: load-generator limit, reported separately so it is never mistaken
    #: for a server-side failure.
    overflowed: int
    #: Peak number of concurrently live virtual clients.
    clients_peak: int
    latencies: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Requests that received a non-error HTTP response (accepted + shed)."""
        return self.accepted + self.shed

    def as_dict(self) -> Dict[str, object]:
        """The JSON-friendly summary (raw samples reduced to percentiles)."""
        return {
            "rate": self.rate,
            "arrivals": self.arrivals,
            "duration_seconds": self.duration_seconds,
            "offered": self.offered,
            "accepted": self.accepted,
            "shed": self.shed,
            "errors": self.errors,
            "mismatches": self.mismatches,
            "overflowed": self.overflowed,
            "clients_peak": self.clients_peak,
            "latency_ms": self.percentiles_ms(),
        }


class _OpenClient(threading.Thread):
    """One virtual client: a keep-alive connection fed scheduled requests.

    The dispatcher hands it ``(query text, scheduled start)`` pairs through
    an inbox queue; after each response the client parks itself back on the
    idle stack.  ``None`` in the inbox ends the thread.
    """

    def __init__(
        self,
        host: str,
        port: int,
        idle: List["_OpenClient"],
        idle_lock: threading.Lock,
        expected: Optional[Dict[str, Dict[str, object]]],
        timeout: float,
        name: str,
    ):
        super().__init__(name=name, daemon=True)
        self._host = host
        self._port = port
        self._idle = idle
        self._idle_lock = idle_lock
        self._expected = expected
        self._timeout = timeout
        self.inbox: "queue.Queue" = queue.Queue()
        self._connection: Optional[http.client.HTTPConnection] = None
        self.latencies: List[float] = []
        self.accepted = 0
        self.shed = 0
        self.errors = 0
        self.mismatches = 0

    def run(self) -> None:  # pragma: no cover - exercised via run_open_loop
        while True:
            item = self.inbox.get()
            if item is None:
                break
            text, scheduled = item
            self._one_request(text, scheduled)
            with self._idle_lock:
                self._idle.append(self)
        if self._connection is not None:
            self._connection.close()

    def _one_request(self, text: str, scheduled: float) -> None:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        body = json.dumps({"query": text})
        try:
            self._connection.request(
                "POST", "/query", body=body, headers={"Content-Type": "application/json"}
            )
            response = self._connection.getresponse()
            payload = response.read()
            status = response.status
            if response.will_close:
                self._connection.close()
                self._connection = None
        except (OSError, http.client.HTTPException):
            self.errors += 1
            if self._connection is not None:
                self._connection.close()
            self._connection = None  # reconnect on the next request
            return
        finished = time.perf_counter()
        if status == 503:
            self.shed += 1  # the server protecting its queue; not an error
            return
        if status != 200:
            self.errors += 1
            return
        self.accepted += 1
        # Open-loop latency runs from the *scheduled* arrival: time the
        # request spent waiting to be dispatched counts too (that is the
        # latency a real user at that arrival instant would have seen).
        self.latencies.append(finished - scheduled)
        if self._expected is not None:
            try:
                result = json.loads(payload)["result"]
            except (json.JSONDecodeError, KeyError, UnicodeDecodeError):
                self.mismatches += 1
                return
            reference = self._expected.get(text)
            if reference is None or answer_of(result) != answer_of(reference):
                self.mismatches += 1


def run_open_loop(
    url: str,
    queries: Sequence[str],
    rate: float,
    duration: float,
    arrivals: str = "poisson",
    seed: int = 0,
    expected: Optional[Dict[str, Dict[str, object]]] = None,
    timeout: float = 30.0,
    max_clients: int = 192,
) -> OpenLoopReport:
    """Offer *rate* requests/second for *duration* seconds, come what may.

    Arrival instants are pre-generated from a seeded RNG -- ``poisson``
    (exponential gaps, bursty like independent users) or ``uniform``
    (evenly spaced) -- and each arrival is dispatched to an idle virtual
    client, or a fresh one if all are busy (up to *max_clients*; beyond
    that the arrival is counted in ``overflowed`` rather than silently
    skipped, so generator saturation is never hidden -- and never blamed
    on the server).  The default cap sits below ``QueryServer``'s default
    ``max_connections`` (256) on purpose: a fleet larger than the server's
    connection budget is shed at accept with ``Connection: close``, and
    the reconnect churn can overflow the listen backlog into client-side
    resets that would read as server errors.  Unlike the closed loop, a slow or
    overloaded server does **not** slow the offered load down: queueing
    and shedding become visible instead of being absorbed by the client.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if arrivals not in ("poisson", "uniform"):
        raise ValueError(f"arrivals must be 'poisson' or 'uniform', got {arrivals!r}")
    if not queries:
        raise ValueError("the query mix is empty")
    if max_clients < 1:
        raise ValueError(f"max_clients must be >= 1, got {max_clients}")
    host, port = parse_base_url(url)

    # Pre-generate the arrival schedule so RNG work never skews pacing.
    rng = random.Random(seed)
    offsets: List[float] = []
    instant = 0.0
    gap = 1.0 / rate
    while instant < duration:
        offsets.append(instant)
        instant += rng.expovariate(rate) if arrivals == "poisson" else gap

    idle: List[_OpenClient] = []
    idle_lock = threading.Lock()
    clients: List[_OpenClient] = []
    overflowed = 0
    started = time.perf_counter()
    for position, offset in enumerate(offsets):
        scheduled = started + offset
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        with idle_lock:
            client = idle.pop() if idle else None
        if client is None:
            if len(clients) >= max_clients:
                overflowed += 1
                continue
            client = _OpenClient(
                host, port, idle, idle_lock, expected, timeout,
                name=f"openloop-{len(clients)}",
            )
            client.start()
            clients.append(client)
        client.inbox.put((queries[position % len(queries)], scheduled))
    for client in clients:
        client.inbox.put(None)  # finish in-flight work, then exit
    for client in clients:
        client.join()
    elapsed = time.perf_counter() - started

    latencies: List[float] = []
    accepted = shed = errors = mismatches = 0
    for client in clients:
        latencies.extend(client.latencies)
        accepted += client.accepted
        shed += client.shed
        errors += client.errors
        mismatches += client.mismatches
    latencies.sort()
    return OpenLoopReport(
        rate=rate,
        arrivals=arrivals,
        duration_seconds=elapsed,
        offered=len(offsets),
        accepted=accepted,
        shed=shed,
        errors=errors,
        mismatches=mismatches,
        overflowed=overflowed,
        clients_peak=len(clients),
        latencies=latencies,
    )
