"""Micro-batching: coalesce concurrent queries into one ``run_many`` call.

The query services already amortise work across a batch -- ``run_many``
fetches each distinct cover key once and joins each distinct query once --
but an HTTP server receives queries one request at a time.  The
:class:`MicroBatcher` closes that gap: queries submitted while a flush is
pending (from one ``/query/batch`` request or from many concurrent ones)
are collected for up to ``flush_window`` seconds, then executed as a single
``run_many`` batch on the worker pool.  Each submitter gets exactly its own
results back, in its own order.

A window of zero still batches whatever arrived within one event-loop tick
(the flush is scheduled, not run inline), which is the natural setting for
tests and the right one for latency-sensitive serving.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.exec.executor import QueryResult
from repro.service.service import QueryService


class BatcherClosed(RuntimeError):
    """``submit`` after ``drain``: the batcher is shutting down.

    The HTTP server maps this to a 503 load-shed response, so a query that
    races the drain is *rejected*, never silently dropped.
    """


class MicroBatcher:
    """Collects queries across awaiters and flushes them as one batch.

    Parameters
    ----------
    service:
        The query service; only ``run_many`` is used.
    executor:
        The thread pool the (blocking, CPU/IO-bound) ``run_many`` call runs
        on, keeping the event loop free to accept more requests -- which is
        exactly what gives the batcher something to coalesce.
    flush_window:
        Seconds to keep a pending batch open after its first query arrives.
    max_batch:
        Flush immediately once this many queries are pending.
    """

    def __init__(
        self,
        service: QueryService,
        executor: Executor,
        flush_window: float = 0.002,
        max_batch: int = 64,
    ):
        if flush_window < 0:
            raise ValueError(f"flush window must be >= 0, got {flush_window}")
        if max_batch < 1:
            raise ValueError(f"max batch must be >= 1, got {max_batch}")
        self._service = service
        self._executor = executor
        self.flush_window = flush_window
        self.max_batch = max_batch
        self._pending: List[Tuple[str, asyncio.Future, Optional[str]]] = []
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        #: Pool futures of flushes dispatched but not yet delivered; drain()
        #: awaits these too, so no in-flight batch is abandoned.
        self._inflight: set = set()
        self._closed = False
        #: Telemetry: flushes executed and queries that shared a flush.
        self.flushes = 0
        self.queries_batched = 0

    @property
    def closed(self) -> bool:
        """True once :meth:`drain` has started; ``submit`` raises from then on."""
        return self._closed

    # ------------------------------------------------------------------
    async def submit(
        self, queries: Sequence[str], request_id: Optional[str] = None
    ) -> List[QueryResult]:
        """Enqueue *queries* and await their results (input order kept).

        *request_id* tags the queries in the flush's trace span, so a
        coalesced flush still names every request it served.

        Raises :class:`BatcherClosed` once :meth:`drain` has started --
        enqueueing into a draining batcher would silently strand the query.
        The check and the enqueue below run without an intervening ``await``,
        so a submission either lands before the drain flush (and is
        answered) or observes the closed flag (and is rejected); there is no
        third interleaving.
        """
        if self._closed:
            raise BatcherClosed("the micro-batcher is draining; no new queries accepted")
        if not queries:
            return []
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in queries]
        self._pending.extend(
            (query, future, request_id) for query, future in zip(queries, futures)
        )
        if len(self._pending) >= self.max_batch:
            self._cancel_timer()
            self._flush()
        elif self._flush_handle is None:
            self._flush_handle = loop.call_later(self.flush_window, self._flush)
        return list(await asyncio.gather(*futures))

    def _cancel_timer(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None

    def _flush(self) -> None:
        """Hand the pending batch to the pool and fan results back out."""
        self._flush_handle = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        self.flushes += 1
        self.queries_batched += len(batch)
        texts = [text for text, _, _ in batch]
        futures = [future for _, future, _ in batch]
        request_ids = [request_id for _, _, request_id in batch]
        loop = asyncio.get_running_loop()
        pool_future = loop.run_in_executor(self._executor, self._run_batch, texts, request_ids)
        self._inflight.add(pool_future)

        def deliver(done: "asyncio.Future") -> None:
            self._inflight.discard(done)
            error = done.exception()
            if error is not None:
                for future in futures:
                    if not future.done():
                        future.set_exception(error)
                return
            for future, result in zip(futures, done.result()):
                if not future.done():
                    future.set_result(result)

        pool_future.add_done_callback(deliver)

    def _run_batch(
        self, texts: List[str], request_ids: List[Optional[str]]
    ) -> List[QueryResult]:
        """Run one flush on the pool thread, under its own trace root.

        A flush serves queries from *several* HTTP requests, so it cannot
        nest under any one request's span; it is a fresh root carrying the
        distinct request ids it coalesced (each submitter's own request span
        still times its wait).
        """
        if not obs.enabled():
            return self._service.run_many(texts)
        distinct = [rid for rid in dict.fromkeys(request_ids) if rid is not None]
        with obs.trace("batch_flush", queries=len(texts), request_ids=distinct):
            return self._service.run_many(texts)

    async def drain(self) -> None:
        """Flush anything pending, wait for every in-flight batch, and
        reject all further submissions (used on shutdown).

        After drain returns, every query that made it into the batcher has
        been answered (or failed with its batch's error) and any later
        ``submit`` raises :class:`BatcherClosed` -- queries racing a
        shutdown are either served or rejected, never dropped.
        """
        self._closed = True
        self._cancel_timer()
        if self._pending:
            futures = [future for _, future, _ in self._pending]
            self._flush()
            await asyncio.gather(*futures, return_exceptions=True)
        # Flushes already on the pool (dispatched before drain) must land
        # before the executor shuts down underneath them.
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
