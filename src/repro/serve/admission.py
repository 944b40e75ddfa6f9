"""Admission control: bound the work in flight, refuse the rest.

A long-lived router dies by queueing: accept everything and the backlog
grows until memory or every deadline is blown.  The controller holds
two bounds — ``max_concurrent`` jobs routing and ``max_queue_depth``
jobs waiting — and answers anything beyond them *immediately* with a
rejection carrying a Retry-After hint derived from observed job times,
which is the contract a load-balancer or client backoff loop needs.

Single-loop discipline: every method runs on the event loop; routing
itself happens in worker processes (``/route``) and executor threads
(warm ECO jobs), so the controller never blocks.  ``max_concurrent``
covers both job kinds, and the server keeps that many ``/route``
workers and ECO threads, so an admitted job never waits for either.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Deque, Optional


class AdmissionRejected(Exception):
    """The server is at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, running: int, queued: int, retry_after: float) -> None:
        super().__init__(
            f"at capacity: {running} running, {queued} queued; "
            f"retry after {retry_after:.1f}s"
        )
        self.running = running
        self.queued = queued
        self.retry_after = retry_after

    def __reduce__(self):
        return type(self), (self.running, self.queued, self.retry_after)


class AdmissionController:
    """Two-bound admission: run up to N, queue up to M, reject the rest."""

    #: EMA weight for observed job durations (recent jobs dominate).
    EMA_ALPHA = 0.3

    def __init__(
        self,
        max_concurrent: int,
        max_queue_depth: int,
        clock=time.monotonic,
    ) -> None:
        self.max_concurrent = max(1, max_concurrent)
        self.max_queue_depth = max(0, max_queue_depth)
        self._clock = clock
        self.running = 0
        self._waiters: Deque[asyncio.Future] = deque()
        #: EMA of job wall time; seeds the Retry-After estimate before
        #: the first job completes.
        self.avg_job_seconds = 1.0
        self.admitted = 0
        self.rejected = 0

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def retry_after(self) -> float:
        """Seconds until a slot plausibly frees for a new arrival."""
        backlog = self.queued + 1
        estimate = self.avg_job_seconds * backlog / self.max_concurrent
        return max(0.5, min(estimate, 60.0))

    def reserve(self) -> Optional[asyncio.Future]:
        """The admission decision, made synchronously at request time.

        Returns None with a running slot claimed, or a future that
        resolves when a slot frees (the job is *queued*).  Raises
        :class:`AdmissionRejected` when the queue is full — the caller
        turns that into HTTP 429 before doing any work.
        """
        if self.running < self.max_concurrent and not self._waiters:
            self.running += 1
            self.admitted += 1
            return None
        if len(self._waiters) >= self.max_queue_depth:
            self.rejected += 1
            raise AdmissionRejected(
                self.running, self.queued, self.retry_after()
            )
        future = asyncio.get_running_loop().create_future()
        self._waiters.append(future)
        return future

    def release(self, elapsed_seconds: Optional[float] = None) -> None:
        """A job finished: free its slot or hand it to the next waiter."""
        if elapsed_seconds is not None and elapsed_seconds >= 0.0:
            self.avg_job_seconds = (
                (1.0 - self.EMA_ALPHA) * self.avg_job_seconds
                + self.EMA_ALPHA * elapsed_seconds
            )
        while self._waiters:
            future = self._waiters.popleft()
            if future.cancelled():
                continue
            self.admitted += 1
            future.set_result(None)  # the running slot transfers
            return
        self.running = max(0, self.running - 1)

    def abandon(self, future: asyncio.Future) -> None:
        """A queued job went away before starting (client gone, shutdown).

        If the slot had already been granted, it is re-released so the
        next waiter (or the running count) stays correct.
        """
        try:
            self._waiters.remove(future)
        except ValueError:
            if future.done() and not future.cancelled():
                self.release()
