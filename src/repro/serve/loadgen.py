"""Closed- and open-loop load generation against a running query server.

Both loops send through one client (:class:`_Client`): a keep-alive
:class:`http.client.HTTPConnection` (reopened after a transport failure or
a ``Connection: close``) that POSTs ``/query`` and sorts each answer one
way.  A 200 is *accepted*: its latency is a sample, timed from a start
instant the caller passes, and with an ``expected`` mapping its answer is
checked.  A 503 is *shed* (the server protecting its queue).  Any other
status, or a transport failure, is an *error*.

``run_load`` is the closed loop: ``concurrency`` workers send back-to-back,
each its next request only after the previous response lands, so offered
load adapts to what the server sustains.  Workers walk a shared query mix
round-robin from staggered offsets, so the server sees a blend of repeated
(cache-friendly) and fresh queries -- the shape of the paper's WH + FB
workloads.  A sample starts when its request is sent.  Its report counts
every HTTP response in ``requests`` and every non-200 one (503 included)
plus every transport failure in ``errors``.

``run_open_loop`` is the honest overload instrument: requests arrive at a
*fixed* rate (Poisson or uniform) however fast responses come back, the way
independent users hit a service.  A closed loop slows down when the server
does, which **hides latency under overload** (coordinated omission); the
open loop keeps offering load, so queueing delay shows in the percentiles
and load-shedding (503 + ``Retry-After``) is measured rather than masked.
Each arrival goes to an idle virtual client or a new one, and its sample
starts at the *scheduled* arrival, so dispatch lag counts against the
server, not for it.

The reports compute exact percentiles from the sorted samples (the server's
``/metrics`` histogram estimates them from log-spaced buckets; comparing
the two checks the bucket resolution).  ``expected`` maps a query text to
its ``result_to_dict`` payload, and compared are the *answer* fields --
``total_matches``, ``matched_tids``, ``matches_per_tree`` -- not the
per-execution telemetry under ``stats``.  This is the served-vs-direct
equivalence check the bench experiments rely on.
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

_HEADERS = {"Content-Type": "application/json"}


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


class _Client:
    """One keep-alive connection that sends queries and sorts their answers.

    ``requests`` counts HTTP responses, ``shed`` the 503s among them and
    ``errors`` the other non-200 ones plus transport failures;
    ``latencies`` holds one sample per 200, ``mismatches`` the 200s whose
    answer differs from *expected*.
    """

    def __init__(
        self, host: str, port: int, expected: Optional[Dict[str, Dict[str, object]]], timeout: float
    ):
        # Closed -- after a transport failure here, or by http.client after
        # a response that says ``Connection: close`` -- it reconnects on the
        # next request.
        self.connection = http.client.HTTPConnection(host, port, timeout=timeout)
        self._expected = expected
        self.requests = 0
        self.shed = 0
        self.errors = 0
        self.mismatches = 0
        self.latencies: List[float] = []

    def send(self, text: str, started: float) -> None:
        """POST *text*, then sort the answer, timing a 200 from *started*."""
        try:
            self.connection.request("POST", "/query", body=json.dumps({"query": text}), headers=_HEADERS)
            response = self.connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.errors += 1
            self.connection.close()
            return
        finished = time.perf_counter()
        self.requests += 1
        if response.status == 503:
            self.shed += 1
        elif response.status != 200:
            self.errors += 1
        else:
            self.latencies.append(finished - started)
            if self._expected is not None and not self._answers(text, payload):
                self.mismatches += 1

    def _answers(self, text: str, payload: bytes) -> bool:
        """Whether *payload* holds the expected answer to *text*."""
        try:
            result = json.loads(payload)["result"]
        except (ValueError, KeyError):  # not JSON (a decode error is a ValueError), or no result
            return False
        reference = self._expected.get(text)
        return reference is not None and answer_of(result) == answer_of(reference)


#: What a :class:`_Client` counts, summed over a run's clients by ``_added_up``.
_COUNTS = ("requests", "shed", "errors", "mismatches")


def _added_up(clients: Sequence[_Client]) -> Tuple[Dict[str, int], List[float]]:
    """*clients*' counts summed, and their latencies sorted ascending."""
    counts = {name: sum(getattr(client, name) for client in clients) for name in _COUNTS}
    return counts, sorted(sample for client in clients for sample in client.latencies)


@dataclass
class LoadgenReport(_Latencies):
    """What one closed-loop run measured.

    ``requests`` counts every HTTP response; ``errors`` every non-200
    response (503 included) plus every transport failure; ``latencies``
    the 200s only, sorted ascending, and ``qps`` the 200s a second.
    """

    concurrency: int
    duration_seconds: float  # measured wall time, not the requested duration
    requests: int
    errors: int
    #: Responses that differed from the expected (in-process) result.
    mismatches: int
    #: Latencies of the 200s in seconds, sorted ascending.
    latencies: List[float] = field(default_factory=list)

    @property
    def qps(self) -> float:
        """Answers (200s) per second of wall time: a 503 or a 500 is no answer."""
        if self.duration_seconds <= 0:
            return 0.0
        return len(self.latencies) / self.duration_seconds


class _Worker(threading.Thread):
    """One closed-loop client: connect, send, repeat until the deadline."""

    def __init__(
        self,
        client: _Client,
        queries: Sequence[str],
        offset: int,
        barrier: threading.Barrier,
        deadline_holder: List[float],
    ):
        super().__init__(name=f"loadgen-{offset}", daemon=True)
        self.client = client
        self._queries = queries
        self._offset = offset
        self._barrier = barrier
        self._deadline_holder = deadline_holder
        self.failure: Optional[BaseException] = None

    def run(self) -> None:  # pragma: no cover - exercised via run_load
        try:
            self.client.connection.connect()  # fail fast: a refused connection aborts the run
            try:
                self._barrier.wait()
                deadline = self._deadline_holder[0]
                position = self._offset
                while time.perf_counter() < deadline:
                    text = self._queries[position % len(self._queries)]
                    position += 1
                    self.client.send(text, time.perf_counter())
            finally:
                self.client.connection.close()
        except BaseException as error:  # noqa: BLE001 - reported by run_load
            self.failure = error
            self._barrier.abort()  # release everyone blocked on the start line


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
    stagger = max(1, len(queries) // concurrency)
    workers = [
        _Worker(
            _Client(host, port, expected, timeout), queries, offset * stagger, barrier, deadline_holder
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

    counts, latencies = _added_up([worker.client for worker in workers])
    return LoadgenReport(
        concurrency=concurrency,
        duration_seconds=elapsed,
        requests=counts["requests"],
        errors=counts["errors"] + counts["shed"],
        mismatches=counts["mismatches"],
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


class _OpenClient(threading.Thread):
    """One virtual client: a :class:`_Client` fed scheduled requests.

    The dispatcher hands it ``(query text, scheduled start)`` pairs through
    an inbox queue; after each response the client parks itself back on the
    idle stack.  ``None`` in the inbox ends the thread.
    """

    def __init__(self, client: _Client, idle: List["_OpenClient"], idle_lock: threading.Lock, name: str):
        super().__init__(name=name, daemon=True)
        self.client = client
        self._idle = idle
        self._idle_lock = idle_lock
        self.inbox: "queue.Queue" = queue.Queue()

    def run(self) -> None:  # pragma: no cover - exercised via run_open_loop
        while True:
            item = self.inbox.get()
            if item is None:
                break
            self.client.send(*item)
            with self._idle_lock:
                self._idle.append(self)
        self.client.connection.close()


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
    that the arrival is counted in ``overflowed``, so generator saturation
    is never hidden -- and never blamed on the server).  The default cap
    sits below ``QueryServer``'s default ``max_connections`` (256) on
    purpose: a fleet larger than the server's connection budget is shed at
    accept with ``Connection: close``, and the reconnect churn can overflow
    the listen backlog into client-side resets that would read as errors.
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
                _Client(host, port, expected, timeout), idle, idle_lock, name=f"openloop-{len(clients)}"
            )
            client.start()
            clients.append(client)
        client.inbox.put((queries[position % len(queries)], scheduled))
    for client in clients:
        client.inbox.put(None)  # finish in-flight work, then exit
    for client in clients:
        client.join()
    elapsed = time.perf_counter() - started

    counts, latencies = _added_up([client.client for client in clients])
    return OpenLoopReport(
        rate=rate,
        arrivals=arrivals,
        duration_seconds=elapsed,
        offered=len(offsets),
        accepted=len(latencies),
        shed=counts["shed"],
        errors=counts["errors"],
        mismatches=counts["mismatches"],
        overflowed=overflowed,
        clients_peak=len(clients),
        latencies=latencies,
    )
