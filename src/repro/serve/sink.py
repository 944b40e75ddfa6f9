"""AsyncSink: the bridge from the routing event stream to asyncio.

SSE consumers live on the event loop; the events come from elsewhere.
A warm ECO job routes synchronously in an executor thread and calls
:meth:`AsyncSink.emit`, which is thread-safe — events are flattened to
their JSON dicts immediately (the same shape ``JsonlSink`` writes, so a
trace file and an SSE stream of the same run are line-for-line
identical), appended to an in-memory log, and loop-side subscribers are
woken through ``call_soon_threadsafe``.  A cold ``/route`` job routes
in a worker process into a loop-less ``AsyncSink`` of its own; the
server hands the records it returns to the job's sink with
:meth:`AsyncSink.extend`, which wakes subscribers once.

Subscribers replay from any index and then follow the live tail, so a
client that connects after the job finished still gets the full
stream.  The log is bounded: past ``capacity`` events the sink counts
drops instead of growing without bound (a long-lived server must never
let one chatty job eat the heap).
"""

from __future__ import annotations

import asyncio
import threading
from typing import AsyncIterator, Dict, List, Optional, Tuple

from repro.obs.events import RouteEvent
from repro.obs.sinks import EventSink

#: Events one job's log keeps before it counts drops instead.
EVENT_CAPACITY = 100_000


class AsyncSink(EventSink):
    """Queue-backed event sink feeding asyncio subscribers (SSE)."""

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        capacity: int = EVENT_CAPACITY,
    ) -> None:
        self._loop = loop
        self._capacity = capacity
        self._lock = threading.Lock()
        self._events: List[Dict[str, object]] = []
        self._waiters: List[asyncio.Event] = []
        self._closed = False
        #: Events discarded because the log hit ``capacity``.
        self.dropped = 0

    # ------------------------------------------------------------------
    # producer side (any thread)
    # ------------------------------------------------------------------

    def emit(self, event: RouteEvent) -> None:
        record = event.to_dict()
        with self._lock:
            if self._closed:
                # A straggling emit after close is a lifecycle race the
                # service tolerates by design (contrast JsonlSink, whose
                # callers own its lifetime and get a RuntimeError).
                self.dropped += 1
                return
            if len(self._events) >= self._capacity:
                self.dropped += 1
                return
            self._events.append(record)
        self._wake_soon()

    def extend(
        self, records: List[Dict[str, object]], dropped: int = 0
    ) -> None:
        """Append already-flattened records in one batch, bounded like
        :meth:`emit`; ``dropped`` adds the producer's own drop count."""
        with self._lock:
            if self._closed:
                self.dropped += len(records) + dropped
                return
            room = max(0, self._capacity - len(self._events))
            self._events.extend(records[:room])
            self.dropped += dropped + max(0, len(records) - room)
        self._wake_soon()

    def close(self) -> None:
        """End the stream: subscribers drain the log, then stop."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake_soon()

    def _wake_soon(self) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._wake)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def _wake(self) -> None:
        for waiter in self._waiters:
            waiter.set()

    # ------------------------------------------------------------------
    # consumer side (event loop)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def snapshot(self) -> List[Dict[str, object]]:
        """The events logged so far (a copy; safe to mutate)."""
        with self._lock:
            return list(self._events)

    async def subscribe(
        self, start: int = 0
    ) -> AsyncIterator[Tuple[int, Dict[str, object]]]:
        """Yield ``(index, event_dict)`` from ``start``, then follow live.

        Ends when the sink is closed and the log fully replayed.  Must
        be iterated on the loop the sink was constructed with.
        """
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        waiter = asyncio.Event()
        self._waiters.append(waiter)
        try:
            index = max(0, start)
            while True:
                # Clear before reading: an emit between the read and the
                # await re-sets the flag, so no wake-up is ever lost.
                waiter.clear()
                with self._lock:
                    chunk = self._events[index:]
                    closed = self._closed
                if chunk:
                    for record in chunk:
                        yield index, record
                        index += 1
                elif closed:
                    return
                else:
                    await waiter.wait()
        finally:
            self._waiters.remove(waiter)
